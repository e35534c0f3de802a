// Bit-exact capture and replay of the pipeline's ingest stream.
//
// A datagram log records exactly what the pipeline consumed — each datagram's
// payload bytes, its pipeline-facing source id, and the receive timestamp —
// in arrival order. Because every downstream decision (sharding, epoch
// boundaries, decoding, inference) is a deterministic function of that
// sequence, replaying a log reproduces the live run's per-epoch results
// byte-for-byte: any production incident or bench workload becomes a
// repeatable artifact (the same discipline as eval/trace_io, one layer
// earlier in the pipeline).
//
// Format (little-endian, versioned; encoded by common/wire.h):
//   magic "FLKD", u32 version (2)
//   router fingerprint: u32 path_set_count, u64 signature hash — the routing
//     state the capture ran against (all-zero = unrecorded; version-1 logs
//     have no fingerprint fields and read back as unrecorded)
//   per datagram: u64 timestamp_ns (monotonic, relative to capture start),
//     u32 source_addr, u16 source_port, u32 payload length, payload bytes
//   (no trailer: a clean EOF at a record boundary ends the log; EOF anywhere
//    else is a truncation error)
//
// The fingerprint exists because records carry *interned path-set ids*: a
// replay against differently-constructed router state (other topology, other
// warm-up order) would silently join records onto the wrong routes. Capture
// sides stamp the fingerprint once the router is warm
// (CaptureTap::set_router_fingerprint seeks back into the header); replay
// sides pass their own router_fingerprint() in ReplayOptions and
// replay_dgram_log fails loudly on a mismatch instead of replaying garbage.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "pipeline/ingest_queue.h"

namespace flock {

class EcmpRouter;

// Identity of the routing state a capture ran against: how many path sets
// were interned and an order-sensitive hash of every set's switch pair and
// component sequences. Replay correctness depends on construction-order
// warm-up, so the hash is deliberately sensitive to interning order.
struct RouterFingerprint {
  std::uint32_t path_sets = 0;
  std::uint64_t hash = 0;

  bool operator==(const RouterFingerprint&) const = default;
  // All-zero = "not recorded"; such fingerprints are never checked.
  bool empty() const { return path_sets == 0 && hash == 0; }
};

RouterFingerprint router_fingerprint(const EcmpRouter& router);

// The offer edge the net layer feeds: StreamingPipeline::offer / offer_wait
// bound into a std::function. Returns false when the datagram was not
// accepted (counted by the callee; see pipeline stats).
using DgramOfferFn = std::function<bool(IngestDatagram)>;

struct LoggedDatagram {
  std::uint64_t timestamp_ns = 0;  // receive time, relative to capture start
  std::uint32_t source_addr = 0;   // pipeline-facing exporter id (shard key)
  std::uint16_t source_port = 0;   // wire endpoint detail; 0 when not via UDP
  std::vector<std::uint8_t> payload;

  bool operator==(const LoggedDatagram&) const = default;
};

class DgramLogWriter {
 public:
  // Writes the file header immediately (fingerprint fields included, zeroed
  // when not supplied). The stream must outlive the writer.
  explicit DgramLogWriter(std::ostream& os, const RouterFingerprint& fingerprint = {});

  void append(const LoggedDatagram& datagram);

  // Patch the header's fingerprint in place (the router is typically warmed
  // *during* the captured run, after the header was written). Requires a
  // seekable stream; throws std::runtime_error otherwise.
  void set_fingerprint(const RouterFingerprint& fingerprint);

  std::uint64_t written() const { return written_; }

 private:
  std::ostream* os_;
  std::uint64_t written_ = 0;
};

class DgramLogReader {
 public:
  // Validates magic and version up front; throws std::runtime_error on a
  // foreign or unsupported file. Accepts version 1 (no fingerprint) and 2.
  // The stream must outlive the reader.
  explicit DgramLogReader(std::istream& is);

  // Reads the next datagram. False at a clean end-of-log; throws
  // std::runtime_error when the file ends mid-record (truncation).
  bool next(LoggedDatagram& out);

  std::uint32_t version() const { return version_; }
  // Empty when the log predates fingerprints (v1) or none was recorded.
  const RouterFingerprint& fingerprint() const { return fingerprint_; }

 private:
  std::istream* is_;
  std::uint32_t version_ = 0;
  RouterFingerprint fingerprint_;
};

// Capture tap, spliced between a datagram source (the UDP server, or any
// in-process producer) and the pipeline's offer edge. offer() appends to the
// log and forwards downstream under one lock, so the log order IS the
// pipeline's arrival order even with many concurrent receiver threads —
// the property that makes replay bit-exact.
class CaptureTap {
 public:
  // The tap stamps each datagram with time-since-construction.
  CaptureTap(std::ostream& os, DgramOfferFn downstream);

  // Thread-safe. Returns the downstream verdict (false = dropped there;
  // the datagram is still captured, mirroring what the pipeline saw offered).
  bool offer(IngestDatagram datagram, std::uint16_t source_port = 0) EXCLUDES(mutex_);

  // Adapter for call sites that take a DgramOfferFn.
  DgramOfferFn as_offer_fn();

  // Stamp the routing state this capture ran against into the log header
  // (call once the router is warm — typically right before teardown).
  // Requires the underlying stream to be seekable.
  void set_router_fingerprint(const RouterFingerprint& fingerprint) EXCLUDES(mutex_);

  std::uint64_t captured() const EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  DgramLogWriter writer_ GUARDED_BY(mutex_);
  DgramOfferFn downstream_;  // immutable after construction
  std::chrono::steady_clock::time_point start_;
};

struct ReplayOptions {
  // false: re-offer as fast as the downstream accepts. true: pace offers to
  // the captured inter-arrival gaps (scaled by `speed`), reproducing the
  // live run's temporal shape for wall-clock-sensitive consumers.
  bool paced = false;
  // 2.0 = twice as fast as recorded; paced mode only. Must be finite and
  // > 0 when paced — replay throws std::invalid_argument otherwise.
  double speed = 1.0;
  // When non-empty AND the log recorded a fingerprint, replay refuses
  // (std::runtime_error) to run against mismatched router state instead of
  // silently joining records onto the wrong routes. Unrecorded (v1 or
  // never-stamped) logs are replayed unchecked, so old captures stay usable.
  RouterFingerprint expect_fingerprint;
};

struct ReplayStats {
  std::uint64_t datagrams = 0;
  std::uint64_t accepted = 0;  // downstream offer() returned true
  std::uint64_t rejected = 0;
};

// Re-offer every datagram of a log, in captured order, on the calling
// thread. Throws std::runtime_error on a malformed log.
ReplayStats replay_dgram_log(std::istream& is, const DgramOfferFn& offer,
                             const ReplayOptions& options = {});

// File-path convenience wrappers (trace_io discipline: throw on I/O errors).
ReplayStats replay_dgram_log(const std::string& path, const DgramOfferFn& offer,
                             const ReplayOptions& options = {});

}  // namespace flock
