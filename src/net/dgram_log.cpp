#include "net/dgram_log.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/wire.h"
#include "topology/ecmp.h"

namespace flock {
namespace {

constexpr char kFormat[] = "dgram_log";
constexpr wire::Magic kMagic = {'F', 'L', 'K', 'D'};
// v1: no fingerprint fields. v2: u32 path_set_count + u64 hash follow the
// version word. Old logs stay readable; new logs carry the routing identity.
constexpr std::uint32_t kVersion = 2;
// Byte offset of the fingerprint fields inside a v2 header (magic + version).
constexpr std::streamoff kFingerprintOffset = 8;
// Sanity bound on a single record: real datagrams are <= 64 KiB (UDP), so a
// larger length field means the log is corrupt — reject instead of
// allocating whatever a flipped bit asks for.
constexpr std::uint32_t kMaxPayloadBytes = 1 << 16;

}  // namespace

RouterFingerprint router_fingerprint(const EcmpRouter& router) {
  RouterFingerprint fp;
  fp.path_sets = static_cast<std::uint32_t>(router.num_path_sets());
  // Order-sensitive by design: records carry interned path-set ids, so a
  // replay-side router warmed in a different order is a different router
  // even when the set of pairs is identical.
  std::uint64_t h = wire::kFnvSeed;
  for (PathSetId ps = 0; ps < router.num_path_sets(); ++ps) {
    const PathSet& set = router.path_set(ps);
    h = wire::fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(set.src_sw)));
    h = wire::fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(set.dst_sw)));
    h = wire::fnv1a(h, set.paths.size());
    for (const PathId pid : set.paths) {
      const Path& path = router.path(pid);
      h = wire::fnv1a(h, path.comps.size());
      for (const ComponentId c : path.comps) {
        h = wire::fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(c)));
      }
    }
  }
  fp.hash = fp.path_sets == 0 ? 0 : h;
  if (fp.path_sets != 0 && fp.hash == 0) fp.hash = 1;  // keep non-trivial state non-empty
  return fp;
}

DgramLogWriter::DgramLogWriter(std::ostream& os, const RouterFingerprint& fingerprint)
    : os_(&os) {
  wire::put_header(*os_, kMagic, kVersion);
  wire::put<std::uint32_t>(*os_, fingerprint.path_sets);
  wire::put<std::uint64_t>(*os_, fingerprint.hash);
}

void DgramLogWriter::set_fingerprint(const RouterFingerprint& fingerprint) {
  const std::streamoff end = os_->tellp();
  if (end < 0) throw std::runtime_error("dgram_log: stream is not seekable");
  os_->seekp(kFingerprintOffset);
  wire::put<std::uint32_t>(*os_, fingerprint.path_sets);
  wire::put<std::uint64_t>(*os_, fingerprint.hash);
  os_->seekp(end);
  if (!*os_) throw std::runtime_error("dgram_log: fingerprint patch failed");
}

void DgramLogWriter::append(const LoggedDatagram& datagram) {
  wire::put<std::uint64_t>(*os_, datagram.timestamp_ns);
  wire::put<std::uint32_t>(*os_, datagram.source_addr);
  wire::put<std::uint16_t>(*os_, datagram.source_port);
  wire::put<std::uint32_t>(*os_, datagram.payload.size());
  os_->write(reinterpret_cast<const char*>(datagram.payload.data()),
             static_cast<std::streamsize>(datagram.payload.size()));
  ++written_;
}

DgramLogReader::DgramLogReader(std::istream& is) : is_(&is) {
  wire::StreamReader in(*is_, kFormat);
  version_ = wire::get_header(in, kMagic, kVersion);
  if (version_ >= 2) {
    fingerprint_.path_sets = in.get<std::uint32_t>();
    fingerprint_.hash = in.get<std::uint64_t>();
  }
}

bool DgramLogReader::next(LoggedDatagram& out) {
  // EOF before a record's first byte is a clean end; EOF anywhere later in
  // the record is truncation.
  if (is_->peek() == std::istream::traits_type::eof() && is_->eof()) return false;
  wire::StreamReader in(*is_, kFormat);
  out.timestamp_ns = in.get<std::uint64_t>();
  out.source_addr = in.get<std::uint32_t>();
  out.source_port = in.get<std::uint16_t>();
  const auto len = in.get<std::uint32_t>();
  if (len > kMaxPayloadBytes) in.fail("corrupt payload length");
  out.payload.resize(len);
  in.read(out.payload.data(), len);
  return true;
}

CaptureTap::CaptureTap(std::ostream& os, DgramOfferFn downstream)
    : writer_(os),
      downstream_(std::move(downstream)),
      // Capture timestamps are replay pacing metadata, never result input.
      start_(std::chrono::steady_clock::now()) {}  // flock-lint: allow(wall-clock)

bool CaptureTap::offer(IngestDatagram datagram, std::uint16_t source_port) {
  MutexLock lock(mutex_);
  LoggedDatagram logged;
  logged.timestamp_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)  // flock-lint: allow(wall-clock)
          .count());
  logged.source_addr = datagram.source_addr;
  logged.source_port = source_port;
  logged.payload = datagram.bytes;  // copy: the datagram moves on downstream
  writer_.append(logged);
  // Forwarding inside the lock serializes concurrent taps, which is the
  // point: the log order must equal the queue arrival order exactly.
  return downstream_(std::move(datagram));
}

DgramOfferFn CaptureTap::as_offer_fn() {
  return [this](IngestDatagram datagram) { return offer(std::move(datagram)); };
}

void CaptureTap::set_router_fingerprint(const RouterFingerprint& fingerprint) {
  MutexLock lock(mutex_);
  writer_.set_fingerprint(fingerprint);
}

std::uint64_t CaptureTap::captured() const {
  MutexLock lock(mutex_);
  return writer_.written();
}

ReplayStats replay_dgram_log(std::istream& is, const DgramOfferFn& offer,
                             const ReplayOptions& options) {
  if (options.paced && (!std::isfinite(options.speed) || options.speed <= 0)) {
    throw std::invalid_argument("dgram_log: paced replay speed must be finite and > 0");
  }
  DgramLogReader reader(is);
  if (!options.expect_fingerprint.empty() && !reader.fingerprint().empty() &&
      !(reader.fingerprint() == options.expect_fingerprint)) {
    throw std::runtime_error(
        "dgram_log: router fingerprint mismatch — log captured against " +
        std::to_string(reader.fingerprint().path_sets) + " path sets (hash " +
        std::to_string(reader.fingerprint().hash) + "), replaying against " +
        std::to_string(options.expect_fingerprint.path_sets) + " (hash " +
        std::to_string(options.expect_fingerprint.hash) +
        "); records carry interned path-set ids and need equivalently-constructed "
        "routing state");
  }
  ReplayStats stats;
  // Pacing reference only: when to *offer* a datagram, never what it holds.
  const auto start = std::chrono::steady_clock::now();  // flock-lint: allow(wall-clock)
  const double speed = options.speed;
  LoggedDatagram logged;
  while (reader.next(logged)) {
    if (options.paced) {
      const auto due =
          start + std::chrono::nanoseconds(
                      static_cast<std::uint64_t>(static_cast<double>(logged.timestamp_ns) /
                                                 speed));
      std::this_thread::sleep_until(due);
    }
    IngestDatagram datagram;
    datagram.source_addr = logged.source_addr;
    datagram.bytes = std::move(logged.payload);
    ++stats.datagrams;
    if (offer(std::move(datagram))) {
      ++stats.accepted;
    } else {
      ++stats.rejected;
    }
  }
  return stats;
}

ReplayStats replay_dgram_log(const std::string& path, const DgramOfferFn& offer,
                             const ReplayOptions& options) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("dgram_log: cannot open " + path);
  return replay_dgram_log(is, offer, options);
}

}  // namespace flock
