#include "net/ingest_server.h"

#include "telemetry/flow_record.h"
#include "telemetry/ipfix.h"

namespace flock {

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kDropNewest: return "drop_newest";
    case AdmissionPolicy::kDropByAgentShare: return "drop_by_agent_share";
  }
  return "unknown";
}

UdpIngestServer::UdpIngestServer(UdpIngestServerConfig config, DgramOfferFn offer,
                                 DepthFn depth)
    : config_(config), offer_(std::move(offer)), depth_(std::move(depth)) {
  if (config_.receiver_threads < 1) config_.receiver_threads = 1;
  if (config_.batch_size < 1) config_.batch_size = 1;
  if (config_.max_datagram_bytes < kIpfixHeaderBytes) {
    config_.max_datagram_bytes = kIpfixHeaderBytes;
  }
}

UdpIngestServer::~UdpIngestServer() { stop(); }

bool UdpIngestServer::start(std::string* error) {
  if (running_) return true;
  if (!socket_.open(config_.listen_addr, config_.port, error)) return false;
  socket_.set_recv_timeout(config_.poll_interval);
  socket_.set_recv_buffer_bytes(config_.recv_buffer_bytes);
  endpoint_ = socket_.local_endpoint();
  stop_.store(false, std::memory_order_relaxed);
  receivers_.reserve(static_cast<std::size_t>(config_.receiver_threads));
  for (int t = 0; t < config_.receiver_threads; ++t) {
    receivers_.emplace_back([this] { receive_loop(); });
  }
  running_ = true;
  return true;
}

void UdpIngestServer::stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : receivers_) t.join();
  receivers_.clear();
  socket_.close();
  running_ = false;
}

void UdpIngestServer::receive_loop() {
  // Reusable arena: one contiguous allocation, one slot per batch position.
  // Payload bytes are copied out only for datagrams that are actually
  // offered downstream; quarantined and shed datagrams never allocate.
  const std::size_t slot_bytes = config_.max_datagram_bytes;
  std::vector<std::uint8_t> arena(static_cast<std::size_t>(config_.batch_size) * slot_bytes);
  std::vector<UdpSocket::RecvSlot> slots(static_cast<std::size_t>(config_.batch_size));
  for (int i = 0; i < config_.batch_size; ++i) {
    slots[static_cast<std::size_t>(i)].data = arena.data() + static_cast<std::size_t>(i) *
                                                                 slot_bytes;
    slots[static_cast<std::size_t>(i)].capacity = slot_bytes;
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = socket_.recv_batch(slots.data(), config_.batch_size);
    if (n < 0) break;  // socket closed out from under us
    for (int i = 0; i < n; ++i) {
      handle_datagram(slots[static_cast<std::size_t>(i)].data,
                      slots[static_cast<std::size_t>(i)].len,
                      slots[static_cast<std::size_t>(i)].from);
    }
  }
}

UdpIngestServer::AgentEntry& UdpIngestServer::intern_agent(const UdpEndpoint& from) {
  const std::uint64_t key = from.key();
  // Warm path: wait-free index probe into the published store.
  const std::int32_t found = agent_index_.find(key);
  if (found >= 0) return *agent_store_[static_cast<std::size_t>(found)];
  // Cold path: first datagram from this endpoint. Serialize interners, then
  // re-check — another receiver may have published the entry meanwhile.
  MutexLock lock(intern_mutex_);
  const std::int32_t raced = agent_index_.find(key);
  if (raced >= 0) return *agent_store_[static_cast<std::size_t>(raced)];
  auto entry = std::make_unique<AgentEntry>();
  entry->key = key;
  entry->endpoint = from;
  AgentEntry& ref = *entry;
  const auto index = static_cast<std::int32_t>(agent_store_.writer_size());
  agent_store_.append(std::move(entry));
  agent_store_.publish();
  agent_index_.insert(key, index);
  return ref;
}

void UdpIngestServer::handle_datagram(const std::uint8_t* data, std::size_t len,
                                      const UdpEndpoint& from) {
  bytes_received_.fetch_add(len, std::memory_order_relaxed);
  AgentEntry& agent = intern_agent(from);
  agent.bytes.fetch_add(len, std::memory_order_relaxed);

  // Header validation: the only wire trust boundary. Anything that fails
  // here is quarantined (counted once, per reason) and never enters the
  // pipeline, so decode stages downstream only ever see framed IPFIX.
  IpfixHeader header;
  switch (peek_header(data, len, &header)) {
    case IpfixHeaderStatus::kOk:
      break;
    case IpfixHeaderStatus::kShortHeader:
      malformed_short_header_.fetch_add(1, std::memory_order_relaxed);
      agent.quarantined.fetch_add(1, std::memory_order_relaxed);
      return;
    case IpfixHeaderStatus::kBadVersion:
      malformed_bad_version_.fetch_add(1, std::memory_order_relaxed);
      agent.quarantined.fetch_add(1, std::memory_order_relaxed);
      return;
    case IpfixHeaderStatus::kLengthMismatch:
      malformed_length_mismatch_.fetch_add(1, std::memory_order_relaxed);
      agent.quarantined.fetch_add(1, std::memory_order_relaxed);
      return;
  }
  if (const auto records = peek_record_count(data, len)) {
    records_seen_.fetch_add(*records, std::memory_order_relaxed);
    agent.records.fetch_add(*records, std::memory_order_relaxed);
  }

  // Admission control: shed load here, before the copy and the queue lock,
  // when the pipeline is visibly behind.
  if (depth_ && config_.admission_high_watermark > 0 &&
      depth_() >= config_.admission_high_watermark) {
    bool shed = true;
    if (config_.admission == AdmissionPolicy::kDropByAgentShare) {
      // Shed only sources above their fair share of everything accepted so
      // far: accepted_by_agent * agents > total_accepted. Quiet agents keep
      // flowing even while a top-talker is rate-limited into its share.
      const std::uint64_t agents = agent_store_.size();
      const std::uint64_t total = total_accepted_.load(std::memory_order_relaxed);
      const std::uint64_t mine = agent.accepted.load(std::memory_order_relaxed);
      shed = mine * agents > total;
    }
    if (shed) {
      admission_drops_.fetch_add(1, std::memory_order_relaxed);
      agent.admission_drops.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  // The exporter identity is the IPFIX observation domain (the fleet sets it
  // to the exporting host's node id), mapped to the same synthetic address
  // the in-process path uses — NOT the UDP source, which is just an
  // ephemeral socket. Sharding, epoch cuts, and capture/replay are therefore
  // identical whether datagrams arrive by wire or by function call.
  IngestDatagram datagram;
  datagram.source_addr = node_to_addr(static_cast<NodeId>(header.observation_domain));
  datagram.bytes.assign(data, data + len);
  offered_.fetch_add(1, std::memory_order_relaxed);
  if (offer_(std::move(datagram))) {
    agent.accepted.fetch_add(1, std::memory_order_relaxed);
    total_accepted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    agent.queue_drops.fetch_add(1, std::memory_order_relaxed);
    offer_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
}

NetIngestStats UdpIngestServer::stats() const {
  NetIngestStats s;
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.records_seen = records_seen_.load(std::memory_order_relaxed);
  s.malformed_short_header = malformed_short_header_.load(std::memory_order_relaxed);
  s.malformed_bad_version = malformed_bad_version_.load(std::memory_order_relaxed);
  s.malformed_length_mismatch = malformed_length_mismatch_.load(std::memory_order_relaxed);
  s.admission_drops = admission_drops_.load(std::memory_order_relaxed);
  s.offered = offered_.load(std::memory_order_relaxed);
  s.offer_rejected = offer_rejected_.load(std::memory_order_relaxed);
  s.agents = agent_store_.size();
  s.datagrams_received = s.quarantined() + s.admission_drops + s.offered;
  return s;
}

std::vector<AgentAccount> UdpIngestServer::agent_accounts() const {
  const std::size_t n = agent_store_.size();  // acquire: entries below are published
  std::vector<AgentAccount> accounts;
  accounts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const AgentEntry& e = *agent_store_[i];
    AgentAccount a;
    a.endpoint = e.endpoint;
    a.records = e.records.load(std::memory_order_relaxed);
    a.bytes = e.bytes.load(std::memory_order_relaxed);
    a.quarantined = e.quarantined.load(std::memory_order_relaxed);
    a.admission_drops = e.admission_drops.load(std::memory_order_relaxed);
    a.accepted = e.accepted.load(std::memory_order_relaxed);
    a.queue_drops = e.queue_drops.load(std::memory_order_relaxed);
    a.datagrams = a.quarantined + a.admission_drops + a.accepted + a.queue_drops;
    accounts.push_back(a);
  }
  return accounts;
}

void UdpIngestServer::fold_into(PipelineStats& stats) const {
  const NetIngestStats s = this->stats();
  stats.net_datagrams_received += s.datagrams_received;
  stats.net_malformed_short_header += s.malformed_short_header;
  stats.net_malformed_bad_version += s.malformed_bad_version;
  stats.net_malformed_length_mismatch += s.malformed_length_mismatch;
  stats.net_admission_drops += s.admission_drops;
  stats.net_agents += s.agents;
}

}  // namespace flock
