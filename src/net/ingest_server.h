// UDP/IPFIX socket front-end of the streaming pipeline: the §5 collector
// actually taking datagrams off a wire instead of an in-process call.
//
//   fleet agents ──UDP──> UdpIngestServer (N receiver threads)
//                          │ recvmmsg-style batched receive into per-thread
//                          │ reusable buffer arenas
//                          │ · IPFIX header validation; malformed datagrams
//                          │   quarantined, counted per reason
//                          │ · per-source-agent accounting (datagrams /
//                          │   records / bytes / drops), wait-free snapshot
//                          │ · admission control when the downstream queue
//                          │   backs up: drop-newest or drop-by-agent-share
//                          ▼ offer (optionally through a CaptureTap)
//                         IngestQueue ──> ... existing pipeline, unchanged
//
// Every datagram ends in exactly one outcome and "received" is derived as
// their sum, so ingest conservation holds on the wire in every snapshot:
//   datagrams_received = quarantined (by reason) + admission_drops + offered
// (per agent: datagrams = quarantined + admission_drops + accepted + queue_drops),
// and `offered` splits downstream into the pipeline's accepted/dropped/rejected_closed.
// Only once stop() returns: Σ per-agent datagrams = datagrams_received, and
// offered = what the offer edge took. What the kernel dropped before we read
// the socket is invisible here by nature — senders count their side (the soak bench does).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/snapshot_store.h"
#include "net/dgram_log.h"
#include "net/udp_socket.h"
#include "pipeline/pipeline.h"

namespace flock {

// What to shed when the downstream IngestQueue sits above the admission
// watermark. kDropNewest sheds uniformly (every arriving datagram); the
// agent-share policy sheds only sources sending more than their fair share
// of accepted traffic, so a misbehaving top-talker cannot starve the quiet
// majority out of the queue.
enum class AdmissionPolicy : std::uint8_t {
  kDropNewest = 0,
  kDropByAgentShare = 1,
};

const char* to_string(AdmissionPolicy policy);

struct UdpIngestServerConfig {
  std::uint32_t listen_addr = kLoopbackAddr;
  std::uint16_t port = 0;  // 0 = ephemeral; read back via endpoint()
  int receiver_threads = 1;
  int batch_size = 32;  // datagrams per recvmmsg call (and per arena)
  // Arena slot size; datagrams longer than this are truncated by the kernel
  // and then quarantined by the header length check. Comfortably above the
  // encoder's 1400-byte max message.
  std::size_t max_datagram_bytes = 2048;
  int recv_buffer_bytes = 1 << 21;  // SO_RCVBUF; kernel-side burst absorption
  // Admission control: once the downstream queue depth reaches the
  // watermark, `admission` decides who is shed. 0 disables the policy (the
  // bounded queue itself still drops at capacity, counted by the pipeline).
  std::size_t admission_high_watermark = 0;
  AdmissionPolicy admission = AdmissionPolicy::kDropNewest;
  // Receiver threads re-check the stop flag at this cadence when idle.
  std::chrono::milliseconds poll_interval{50};
};

// Aggregate server counters (all monotone; readable while running).
struct NetIngestStats {
  std::uint64_t datagrams_received = 0;  // derived: quarantined() + admission_drops + offered
  std::uint64_t bytes_received = 0;
  std::uint64_t records_seen = 0;  // peeked from valid headers' set framing
  std::uint64_t malformed_short_header = 0;
  std::uint64_t malformed_bad_version = 0;
  std::uint64_t malformed_length_mismatch = 0;
  std::uint64_t admission_drops = 0;
  std::uint64_t offered = 0;  // handed to the downstream offer edge
  std::uint64_t offer_rejected = 0;  // downstream said no (queue full/closed)
  std::uint64_t agents = 0;   // distinct source endpoints seen

  std::uint64_t quarantined() const {
    return malformed_short_header + malformed_bad_version + malformed_length_mismatch;
  }
};

// One source endpoint's accounting snapshot.
struct AgentAccount {
  UdpEndpoint endpoint;
  std::uint64_t datagrams = 0;  // derived: sum of the four outcomes below
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t admission_drops = 0;
  std::uint64_t accepted = 0;     // offered downstream and taken
  std::uint64_t queue_drops = 0;  // offered downstream and refused
};

class UdpIngestServer {
 public:
  // Reads the downstream queue depth for admission control. Unset (empty)
  // disables admission entirely.
  using DepthFn = std::function<std::size_t()>;

  // `offer` receives every admitted datagram (splice a CaptureTap here to
  // record the stream). `depth` is consulted per datagram only while the
  // watermark policy is enabled.
  UdpIngestServer(UdpIngestServerConfig config, DgramOfferFn offer, DepthFn depth = {});
  ~UdpIngestServer();

  UdpIngestServer(const UdpIngestServer&) = delete;
  UdpIngestServer& operator=(const UdpIngestServer&) = delete;

  // Bind the socket and start the receiver threads. False (with `error` set
  // when non-null) if the socket cannot be opened — e.g. no loopback in the
  // environment; callers degrade gracefully.
  bool start(std::string* error = nullptr);

  // Stop receiving and join the receiver threads. Idempotent. Datagrams
  // already taken off the socket are fully processed before return.
  void stop();

  bool running() const { return running_; }
  UdpEndpoint endpoint() const { return endpoint_; }

  NetIngestStats stats() const;

  // Wait-free snapshot of the per-agent table (SnapshotStore-published,
  // relaxed counters). Each account's datagrams = its outcomes' sum in every
  // snapshot; Σ datagrams = stats().datagrams_received only after stop().
  std::vector<AgentAccount> agent_accounts() const;

  // Fold the net-layer counters into a pipeline stats snapshot (the
  // PipelineStats net_* fields stay zero for pipelines fed in-process).
  void fold_into(PipelineStats& stats) const;

 private:
  // Per-source-endpoint accounting entry. Stable address once published
  // (SnapshotStore), counters bumped by any receiver thread.
  struct AgentEntry {
    std::uint64_t key = 0;
    UdpEndpoint endpoint;
    std::atomic<std::uint64_t> records{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> quarantined{0};
    std::atomic<std::uint64_t> admission_drops{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> queue_drops{0};
  };

  AgentEntry& intern_agent(const UdpEndpoint& from);
  void receive_loop();
  void handle_datagram(const std::uint8_t* data, std::size_t len, const UdpEndpoint& from);

  UdpIngestServerConfig config_;
  DgramOfferFn offer_;
  DepthFn depth_;
  UdpSocket socket_;
  UdpEndpoint endpoint_;
  std::vector<std::thread> receivers_;
  std::atomic<bool> stop_{false};
  bool running_ = false;

  // Agent table: wait-free reads through the published index/store, new
  // agents interned under a small mutex (cold path — once per source).
  // agent_store_/agent_index_ are deliberately un-annotated: the warm path
  // reads them with NO lock (acquire-loads on the published index/store),
  // which GUARDED_BY cannot express. intern_mutex_ serializes only the cold
  // append+publish sequence below.
  SnapshotStore<std::unique_ptr<AgentEntry>> agent_store_;
  PairIndex agent_index_;
  Mutex intern_mutex_;

  // Aggregate counters (relaxed; every datagram lands in exactly one of
  // quarantined / admission_drops / offered, and stats() derives received as
  // their sum). offered_ is bumped before offer_() returns and the per-agent
  // accepted/queue_drops after it, so those agree only once stop() returns.
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> records_seen_{0};
  std::atomic<std::uint64_t> malformed_short_header_{0};
  std::atomic<std::uint64_t> malformed_bad_version_{0};
  std::atomic<std::uint64_t> malformed_length_mismatch_{0};
  std::atomic<std::uint64_t> admission_drops_{0};
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> offer_rejected_{0};
  std::atomic<std::uint64_t> total_accepted_{0};  // agent-share denominator
};

}  // namespace flock
