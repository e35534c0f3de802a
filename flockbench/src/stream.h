// The stream workload: the §5 service (StreamingPipeline) fed interval by
// interval from one producer thread, plus the synchronous replay that
// cross-checks and attributes its work.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "config.h"
#include "eval/runner.h"
#include "pipeline/pipeline.h"
#include "tracer.h"
#include "util.h"

namespace flockbench {

// One simulated interval, encoded the way end-host agents export it.
struct Interval {
  std::size_t trace = 0;  // index into the environment's traces
  std::vector<flock::IngestDatagram> datagrams;
  std::uint64_t records = 0;  // simulated flows handed to the agents
  std::uint64_t bytes = 0;    // IPFIX payload bytes
  std::string capture;        // datagram log of this interval (when captured)
};

struct StreamInputs {
  std::unique_ptr<flock::ExperimentEnv> env;  // topology, router, one trace per interval
  std::vector<Interval> pool;
  flock::PipelineConfig pipeline;
};

flock::PipelineConfig service_config();

// Agents per host observe the trace's flows (application paths stripped,
// probe paths kept) and flush once: the interval's datagrams. Traced as
// telemetry.encode.
Interval encode_interval(const flock::Topology& topo, const flock::Trace& trace,
                         std::size_t trace_index, std::uint32_t export_time, Tracer& tracer);

// Writes the interval's datagrams to an in-memory datagram log. Traced as
// net.capture.
void capture_interval(Interval& interval, Tracer& tracer);

// Reads a capture back with DgramLogReader; returns the payload bytes read.
// Traced as net.replay.
std::uint64_t read_capture(const std::string& capture, Tracer& tracer, std::int64_t id);

// Set-up of stream_steady: fabric, warmed router, the interval pool
// simulated and encoded (and captured to datagram logs when `capture`).
StreamInputs build_stream_inputs(std::uint64_t seed, Tracer& tracer, bool capture);

// Components that failed in the interval's ground truth.
const std::vector<flock::ComponentId>& interval_truth(const StreamInputs& in,
                                                      const Interval& interval);

struct IntervalRun {
  std::vector<std::size_t> pool_index;           // per epoch
  std::vector<std::vector<flock::ComponentId>> diagnoses;  // per epoch
  std::vector<double> latency_s;       // one interval in flight: first offer -> merged verdict
  std::vector<double> capacity_rate;   // records/s of each run-ahead stretch
  std::vector<std::size_t> checked;    // epochs to cross-check
  std::uint64_t records = 0;           // records offered
  std::uint64_t tracker_lagged = 0;    // verdicts seen before the tracker observed them
  std::uint64_t reuses_in_flight = 0;  // arena reuses during one-in-flight passes
  std::uint64_t reuses_ahead = 0;      // and during run-ahead passes
  flock::PipelineStats stats;
  std::vector<flock::EpochResult> epochs;
  std::vector<flock::ComponentVerdict> verdicts;  // tracker state after the last epoch
  std::unordered_map<std::uint32_t, std::int32_t> shard_of;  // exporter -> shard
};

// Feeds one pipeline in rounds. A round is one pass over the pool with one
// interval in flight (the interval phase), then `ahead_passes` passes with
// the producer running ahead on offer_wait (the capacity phase), each timed
// from its first offer to its last verdict. Runs `rounds` rounds, or when
// `rounds` is 0, until `seconds` have passed and at least kMinRounds ran.
// Every round is whole passes, so epoch e is pool interval e % pool size.
IntervalRun run_rounds(StreamInputs& in, std::size_t rounds, double seconds,
                       std::size_t ahead_passes, Tracer& tracer);

// One interval replayed through the synchronous public path: per shard a
// standalone Collector (decode + join) and FlockLocalizer, then a standalone
// ResultSink and TemporalTracker. The replayer keeps the sink and tracker
// across intervals, as the service does.
struct SyncInterval {
  std::vector<flock::ComponentId> merged;
  double critical_path_s = 0.0;  // max shard decode+join + Σ localize + sink + tracker
  std::vector<double> dedup_ratio;  // rows / observations per non-empty shard
  std::string check_error;          // posterior / stopping-rule mismatch, if any
};

class SyncReplayer {
 public:
  SyncReplayer(StreamInputs& in, const std::unordered_map<std::uint32_t, std::int32_t>& shard_of);

  // `core_spans` records engine-build and localize spans.
  SyncInterval replay(const Interval& interval, std::uint64_t epoch, Tracer& tracer,
                      bool core_spans, std::uint64_t check_seed);

 private:
  StreamInputs* in_;
  const std::unordered_map<std::uint32_t, std::int32_t>* shard_of_;
  flock::FlockLocalizer localizer_;
  std::unique_ptr<flock::TemporalTracker> tracker_;
  std::unique_ptr<flock::ResultSink> sink_;
  std::vector<flock::EpochResult> merged_;
};

// stream_steady, untraced (end-to-end metrics) or traced (per-layer
// metrics). `start_ns` is the process start, for setup_s.
WorkloadResult run_stream(std::uint64_t seed, double seconds, bool trace, std::int64_t start_ns,
                          Tracer& tracer);

// Per-layer metrics common to every traced run, computed from the spans.
void add_layer_metrics(const Tracer& tracer, MetricMap& metrics);

}  // namespace flockbench
