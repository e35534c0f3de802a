// StreamingPipeline: the paper's deployment loop (§5) as a continuously
// running, multi-threaded service.
//
//   agents ──> IngestQueue ──> EpochScheduler ──> ShardExecutor (N shards)
//   (many      (bounded,       (1 dispatcher:     (decode IPFIX + join ECMP;
//   producer    drops are       routes by rack,    idle shards steal batches)
//   threads)    counted)        closes epochs)          │ epoch barrier
//                                                       ▼
//              merged diagnosis <── ResultSink <── LocalizerPool (K threads,
//              per epoch           (union +        per-shard FlockLocalizer)
//                                   equivalence-
//                                   class dedup)
//
// Thread model: producers call offer() concurrently; one dispatcher thread
// orders datagrams and epoch boundaries; N shard workers decode and join;
// K localizer threads run inference in oldest-epoch-first order; consumers
// read merged EpochResults from the sink. The shared EcmpRouter gives the
// join hot path wait-free snapshot reads — shards only serialize on the
// router when interning a previously unseen ToR pair.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>

#include "core/flock_localizer.h"
#include "pipeline/epoch_scheduler.h"
#include "pipeline/ingest_queue.h"
#include "pipeline/localizer_pool.h"
#include "pipeline/result_sink.h"
#include "pipeline/sharded_collector.h"
#include "pipeline/temporal_tracker.h"
#include "telemetry/collector.h"
#include "topology/ecmp.h"
#include "topology/topology.h"

namespace flock {

struct PipelineConfig {
  std::int32_t num_shards = 4;
  std::size_t ingest_capacity = 4096;       // datagrams; beyond this, offer() drops
  std::size_t shard_queue_capacity = 1024;  // per shard; beyond this, dispatch blocks
  // Work stealing: max datagrams an idle shard takes from the most-loaded
  // shard per steal (whole dispatch batches, at least one). 0 disables
  // stealing — each shard then processes exactly its rack-affine partition.
  std::size_t steal_batch = 128;
  std::size_t localizer_threads = 2;
  // Intra-epoch parallelism (common/parallel_for.h): the worker-team size
  // each localizer thread uses inside one inference run, and each shard
  // worker uses for the barrier's table reassembly. 0 defers to
  // FLOCK_LOCALIZE_THREADS (default 1 = serial — byte-identical to a
  // pipeline without this knob). The pool and the teams share one machine
  // budget: the effective value is clamped to
  // hardware_concurrency / localizer_threads, so pool x inner never
  // oversubscribes. Thread count is a pure performance lever — results are
  // byte-identical at any setting.
  std::int32_t localize_threads = 0;
  EpochPolicy epoch;                        // automatic boundaries (manual always works)
  CollectorOptions collector;
  FlockOptions localizer;
  // Collapse ECMP-indistinguishable components in the merged diagnosis.
  // Costs all ToR-pair path sets at construction; leave off for topologies
  // where that is prohibitive.
  bool merge_equivalence_classes = false;
  // Cross-epoch diagnosis downstream of the ResultSink: per-component state
  // machines with hysteresis + flap detection over a sliding window of
  // merged epochs (see pipeline/temporal_tracker.h). Always maintained (it
  // is off the hot path); temporal.prior_weight > 0 additionally feeds the
  // tracker's evidence carryover back into the localizer as a prior — the
  // default of 0 keeps per-epoch output byte-identical to a tracker-less
  // pipeline.
  TemporalTrackerConfig temporal;
};

struct PipelineStats {
  // Ingest-edge accounting, derived from the queue's own counters so one
  // snapshot is internally consistent (offered = accepted + dropped +
  // rejected_closed holds in every read, even taken mid-burst while many
  // receiver threads offer concurrently with close()).
  std::uint64_t offered = 0;          // datagrams whose offer() completed
  std::uint64_t accepted = 0;         // entered the ingest queue
  std::uint64_t dropped = 0;          // backpressure: the bounded queue was full
  std::uint64_t rejected_closed = 0;  // shutdown teardown: offered after stop()
  std::uint64_t dispatched = 0;       // routed to shards
  std::uint64_t records_decoded = 0;
  std::uint64_t malformed_messages = 0;
  std::uint64_t epochs_closed = 0;
  std::uint64_t deadline_epochs = 0;    // of those, closed by the wall-clock deadline
  std::uint64_t batches_stolen = 0;     // decode+join batches executed by thieves
  std::uint64_t datagrams_stolen = 0;   // datagrams inside those batches
  std::uint64_t steal_attempts = 0;     // victim scans that found a candidate
  // Shared-router read path (see topology/ecmp.h): snapshots published by
  // interning writers, and lookups that missed the wait-free index.
  std::uint64_t router_index_publishes = 0;
  std::uint64_t router_read_retries = 0;
  // Localizer tasks dispatched ahead of an already-queued newer epoch
  // (age-priority queue; see pipeline/localizer_pool.h).
  std::uint64_t priority_reorders = 0;
  // Columnar-table dedup effectiveness (see core/flow_table.h): raw joined
  // observations vs the weighted rows handed to inference, across all
  // (epoch, shard) snapshots. rows/observations is the dedup ratio.
  std::uint64_t inference_observations = 0;
  std::uint64_t inference_rows = 0;
  // Dedup weights clamped at the uint32 ceiling instead of wrapping.
  std::uint64_t weight_saturations = 0;
  // Epoch-arena recycling (see common/arena.h): epoch FlowTables whose
  // storage a later epoch's build reused, and the bytes of allocation that
  // reuse saved across the run.
  std::uint64_t arena_reuses = 0;
  std::uint64_t arena_bytes_recycled = 0;
  // Likelihood-engine dense S(x) memo: lookups served without a column scan,
  // across every inference run (see core/likelihood_engine.h), and applies
  // that reused the memo's one-time allocation (stamp invalidation) instead
  // of paying two O(w) clears.
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_table_reuses = 0;
  // Intra-epoch parallelism (common/parallel_for.h), across every inference
  // run: chunks executed, chunks taken by helper threads rather than the
  // submitting localizer thread ("steals"), and ns inside chunk bodies
  // summed over threads. All zero at localize_threads = 1.
  std::uint64_t parallel_chunks = 0;
  std::uint64_t parallel_steals = 0;
  std::uint64_t localize_parallel_ns = 0;
  // Same, for the epoch barrier's tree reassembly of per-batch FlowTables
  // (see pipeline/sharded_collector.h).
  std::uint64_t merge_parallel_chunks = 0;
  std::uint64_t merge_parallel_ns = 0;
  // Temporal layer (see pipeline/temporal_tracker.h): component state
  // machine transitions across all merged epochs so far, plus epochs the
  // tracker had to skip because its bounded out-of-order buffer overflowed
  // (0 in a healthy pipeline — the sink merges every epoch).
  std::uint64_t tracker_confirmations = 0;
  std::uint64_t tracker_flaps = 0;
  std::uint64_t tracker_clears = 0;
  std::uint64_t tracker_false_clears = 0;
  std::uint64_t tracker_dropped_epochs = 0;
  // Network front-end (see net/ingest_server.h): zero unless a
  // UdpIngestServer feeds this pipeline and its stats were folded in via
  // UdpIngestServer::fold_into. Received counts a datagram once its outcome
  // is decided, as the sum net_malformed_* + net_admission_drops + offered.
  std::uint64_t net_datagrams_received = 0;
  std::uint64_t net_malformed_short_header = 0;
  std::uint64_t net_malformed_bad_version = 0;
  std::uint64_t net_malformed_length_mismatch = 0;
  std::uint64_t net_admission_drops = 0;
  std::uint64_t net_agents = 0;  // per-source accounting table size
};

class StreamingPipeline {
 public:
  // Lifetime: `topo` and `router` must outlive the pipeline *and* every
  // EpochSnapshot/InferenceInput obtained from it. The binding is explicit —
  // all snapshots share the ShardExecutor's InferenceContext — and the
  // destructor asserts (debug builds) that no context reference escaped the
  // pipeline's stages, i.e. nobody is still holding an epoch's input when
  // the routing state may die with the caller's scope.
  StreamingPipeline(const Topology& topo, EcmpRouter& router, PipelineConfig config);
  ~StreamingPipeline();

  StreamingPipeline(const StreamingPipeline&) = delete;
  StreamingPipeline& operator=(const StreamingPipeline&) = delete;

  // Producer API (thread-safe). offer() is the lossy UDP-like edge: false
  // means the datagram was dropped (and counted). offer_wait() blocks until
  // accepted — for lossless feeding in tests and benchmarks; it returns
  // false (also a counted drop) only if the pipeline stopped while waiting.
  bool offer(IngestDatagram datagram);
  bool offer_wait(IngestDatagram datagram);

  // Manually close the current epoch after everything offered so far.
  void close_epoch();

  // Flush a final partial epoch, finish all inference, join every thread.
  // Idempotent; the destructor calls it.
  void stop();

  ResultSink& results() { return *sink_; }
  const ShardExecutor& shards() const { return *shards_; }
  // Ingest-queue backlog, for the UDP front-end's admission-control policy
  // (net/ingest_server.h): the server sheds load when depth crosses its
  // watermark instead of letting every datagram ride to the queue's edge.
  std::size_t ingest_depth() const { return queue_.size(); }
  std::size_t ingest_capacity() const { return config_.ingest_capacity; }
  // Cross-epoch component verdicts (flap/confirm/clear state machines fed by
  // every merged epoch). Thread-safe to query while the pipeline runs.
  const TemporalTracker& tracker() const { return *tracker_; }

  // Tracker snapshot persistence (see pipeline/temporal_tracker.h): a saved
  // snapshot plus a captured datagram log replays a full incident including
  // its cross-epoch memory. save_tracker is safe any time (it snapshots
  // under the tracker's lock); load_tracker must run before any datagram is
  // offered — it throws std::runtime_error on a corrupt or
  // config-incompatible snapshot and std::logic_error once epochs have been
  // observed. Subsequent epochs continue the snapshot's absolute timeline.
  void save_tracker(std::ostream& os) const;
  void load_tracker(std::istream& is);

  PipelineStats stats() const;

 private:
  PipelineConfig config_;
  EcmpRouter* router_;
  FlockLocalizer localizer_;
  std::unique_ptr<TemporalTracker> tracker_;  // outlives sink_ and pool_
  std::unique_ptr<ResultSink> sink_;
  std::unique_ptr<LocalizerPool> pool_;
  std::unique_ptr<ShardExecutor> shards_;
  IngestQueue queue_;
  std::unique_ptr<EpochScheduler> scheduler_;
  // close_epoch() boundary tokens travel through the same queue as datagrams
  // but are not datagrams; stats() subtracts them out of the queue counters.
  // Each counter is incremented only AFTER its queue operation completed, and
  // stats() reads them BEFORE the queue's own counters, so the subtractions
  // can never underflow no matter how reads interleave with concurrent
  // offers and boundaries.
  std::atomic<std::uint64_t> boundary_pushes_{0};
  std::atomic<std::uint64_t> boundary_rejections_{0};
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_table_reuses_{0};
  std::atomic<std::uint64_t> parallel_chunks_{0};
  std::atomic<std::uint64_t> parallel_steals_{0};
  std::atomic<std::uint64_t> parallel_ns_{0};
  bool stopped_ = false;
};

}  // namespace flock
