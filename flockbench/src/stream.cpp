#include "stream.h"

#include <algorithm>
#include <istream>
#include <sstream>
#include <streambuf>

#include "checks.h"
#include "common/rng.h"
#include "core/likelihood_engine.h"
#include "flowsim/scenario.h"
#include "flowsim/simulate.h"
#include "net/dgram_log.h"
#include "offline.h"
#include "telemetry/agent.h"
#include "telemetry/collector.h"

namespace flockbench {

using flock::ComponentId;

namespace {

// Read-only istream view of a string, so a replay does not copy the capture.
class StringViewBuf : public std::streambuf {
 public:
  explicit StringViewBuf(const std::string& s) {
    char* begin = const_cast<char*>(s.data());
    setg(begin, begin, begin + s.size());
  }
};

// Offers one interval's datagrams from memory.
void feed(flock::StreamingPipeline& pipeline, const Interval& iv, Tracer& tracer,
          std::int64_t id) {
  for (const flock::IngestDatagram& d : iv.datagrams) {
    const std::int32_t span = tracer.begin("pipeline.offer", id);
    pipeline.offer_wait(d);
    tracer.end(span);
  }
}

}  // namespace

flock::PipelineConfig service_config() {
  flock::PipelineConfig config;
  config.num_shards = kShards;
  config.localizer_threads = kLocalizerThreads;
  config.localize_threads = kLocalizeThreads;
  config.localizer.params = service_params();
  config.localizer.localize_threads = kLocalizeThreads;
  return config;
}

Interval encode_interval(const flock::Topology& topo, const flock::Trace& trace,
                         std::size_t trace_index, std::uint32_t export_time, Tracer& tracer) {
  Interval iv;
  iv.trace = trace_index;
  Tracer::Scope span(tracer, "telemetry.encode");
  std::unordered_map<flock::NodeId, flock::Agent> agents;
  for (flock::NodeId h : topo.hosts()) {
    flock::AgentConfig cfg;
    cfg.observation_domain = static_cast<std::uint32_t>(h);
    agents.emplace(h, flock::Agent(topo, cfg));
  }
  for (const flock::SimFlow& f : trace.flows) {
    flock::SimFlow observed = f;
    // Passive application records carry no path; probes know theirs.
    if (observed.kind == flock::SimFlowKind::kApp) observed.taken_path = -1;
    agents.at(f.src_host).observe(observed);
    ++iv.records;
  }
  for (flock::NodeId h : topo.hosts()) {
    for (auto& msg : agents.at(h).flush(export_time)) {
      iv.bytes += msg.size();
      iv.datagrams.push_back({flock::node_to_addr(h), std::move(msg)});
    }
  }
  span.set_work(static_cast<double>(iv.records));
  return iv;
}

void capture_interval(Interval& iv, Tracer& tracer) {
  std::vector<flock::LoggedDatagram> logged;
  logged.reserve(iv.datagrams.size());
  for (std::size_t i = 0; i < iv.datagrams.size(); ++i) {
    flock::LoggedDatagram d;
    d.timestamp_ns = i;
    d.source_addr = iv.datagrams[i].source_addr;
    d.payload = iv.datagrams[i].bytes;
    logged.push_back(std::move(d));
  }
  std::ostringstream os;
  flock::DgramLogWriter writer(os);
  {
    Tracer::Scope span(tracer, "net.capture", -1, static_cast<double>(iv.bytes));
    for (const flock::LoggedDatagram& d : logged) writer.append(d);
  }
  iv.capture = std::move(os).str();
}

std::uint64_t read_capture(const std::string& capture, Tracer& tracer, std::int64_t id) {
  StringViewBuf buf(capture);
  std::istream is(&buf);
  flock::DgramLogReader reader(is);
  flock::LoggedDatagram d;
  std::uint64_t bytes = 0;
  Tracer::Scope span(tracer, "net.replay", id);
  while (reader.next(d)) bytes += d.payload.size();
  span.set_work(static_cast<double>(bytes));
  return bytes;
}

StreamInputs build_stream_inputs(std::uint64_t seed, Tracer& tracer, bool capture) {
  StreamInputs in;
  in.pipeline = service_config();
  in.env = std::make_unique<flock::ExperimentEnv>();
  in.env->topo = std::make_unique<flock::Topology>(flock::make_fat_tree(kFatTreeK));
  const flock::Topology& topo = *in.env->topo;
  in.env->router = std::make_unique<flock::EcmpRouter>(topo);
  {
    // The service's steady state: every ToR pair already interned.
    Tracer::Scope span(tracer, "topology.router_warm");
    in.env->router->build_all_tor_pairs();
  }

  flock::Rng rng(seed_for(seed, 1));
  const flock::DropRateConfig rates = fault_rates();
  const flock::GroundTruth faulty = flock::make_silent_link_drops(topo, kFaultyLinks, rates, rng);
  for (std::int32_t i = 0; i < kPoolSize; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    flock::TrafficConfig traffic;
    traffic.num_app_flows = kAppFlows;
    flock::ProbeConfig probes;  // the A1 mesh: every host to every core, every path
    flock::Rng trace_rng(seed_for(seed, 100 + idx));
    {
      Tracer::Scope span(tracer, "flowsim.simulate");
      in.env->traces.push_back(
          flock::simulate(topo, *in.env->router, faulty, traffic, probes, trace_rng));
    }
    Interval iv = encode_interval(topo, in.env->traces.back(), idx,
                                  1700000000u + 10u * static_cast<std::uint32_t>(i), tracer);
    if (capture) capture_interval(iv, tracer);
    in.pool.push_back(std::move(iv));
  }
  return in;
}

const std::vector<ComponentId>& interval_truth(const StreamInputs& in, const Interval& iv) {
  return in.env->traces.at(iv.trace).truth.failed;
}

IntervalRun run_rounds(StreamInputs& in, std::size_t rounds, double seconds,
                       std::size_t ahead_passes, Tracer& tracer) {
  IntervalRun out;
  flock::StreamingPipeline pipeline(*in.env->topo, *in.env->router, in.pipeline);
  for (const Interval& iv : in.pool) {
    for (const flock::IngestDatagram& d : iv.datagrams) {
      out.shard_of.emplace(d.source_addr, pipeline.shards().shard_of(d.source_addr));
    }
  }
  const std::size_t pool = in.pool.size();
  std::size_t offered = 0;
  const std::int64_t begin_ns = now_ns();
  for (std::size_t round = 0;; ++round) {
    if (rounds > 0 ? round >= rounds
                   : (round >= static_cast<std::size_t>(kMinRounds) &&
                      seconds_between(begin_ns, now_ns()) >= seconds)) {
      break;
    }
    // One epoch per round is cross-checked, a different pool interval each
    // round.
    out.checked.push_back(offered + round % pool);
    std::uint64_t reuses = pipeline.stats().arena_reuses;
    for (std::size_t k = 0; k < pool; ++k, ++offered) {
      const Interval& iv = in.pool[k];
      const auto id = static_cast<std::int64_t>(offered);
      const std::int64_t t0 = now_ns();
      const std::int32_t span =
          tracer.begin("stream.interval", id, static_cast<double>(iv.records));
      feed(pipeline, iv, tracer, id);
      pipeline.close_epoch();
      const std::int64_t closed = now_ns();
      pipeline.results().wait_for_epochs(offered + 1);
      const std::int64_t t1 = now_ns();
      tracer.add("pipeline.close_to_verdict", closed, t1, id);
      tracer.end(span);
      out.latency_s.push_back(seconds_between(t0, t1));
      out.records += iv.records;
      // The sink wakes waiters before its tracker callback runs.
      if (pipeline.tracker().stats().epochs_observed < offered + 1) ++out.tracker_lagged;
    }
    out.reuses_in_flight += pipeline.stats().arena_reuses - reuses;
    reuses = pipeline.stats().arena_reuses;
    for (std::size_t pass = 0; pass < ahead_passes; ++pass) {
      const std::int64_t t0 = now_ns();
      std::uint64_t records = 0;
      for (std::size_t k = 0; k < pool; ++k, ++offered) {
        feed(pipeline, in.pool[k], tracer, static_cast<std::int64_t>(offered));
        pipeline.close_epoch();
        records += in.pool[k].records;
      }
      pipeline.results().wait_for_epochs(offered);
      out.capacity_rate.push_back(static_cast<double>(records) /
                                  seconds_between(t0, now_ns()));
      out.records += records;
    }
    out.reuses_ahead += pipeline.stats().arena_reuses - reuses;
  }
  pipeline.stop();
  out.stats = pipeline.stats();
  out.epochs = pipeline.results().completed();
  std::sort(out.epochs.begin(), out.epochs.end(),
            [](const flock::EpochResult& a, const flock::EpochResult& b) { return a.epoch < b.epoch; });
  out.verdicts = pipeline.tracker().verdicts();
  for (const flock::EpochResult& e : out.epochs) {
    out.pool_index.push_back(static_cast<std::size_t>(e.epoch) % pool);
    out.diagnoses.push_back(e.predicted);
  }
  return out;
}

SyncReplayer::SyncReplayer(StreamInputs& in,
                           const std::unordered_map<std::uint32_t, std::int32_t>& shard_of)
    : in_(&in), shard_of_(&shard_of), localizer_(in.pipeline.localizer) {
  localizer_.options().localize_threads = kLocalizeThreads;
  tracker_ = std::make_unique<flock::TemporalTracker>(in.pipeline.temporal);
  sink_ = std::make_unique<flock::ResultSink>(
      in.pipeline.num_shards, static_cast<flock::EcmpRouter*>(nullptr),
      [this](const flock::EpochResult& e) { merged_.push_back(e); });
}

SyncInterval SyncReplayer::replay(const Interval& iv, std::uint64_t epoch, Tracer& tracer,
                                  bool core_spans, std::uint64_t check_seed) {
  const flock::Topology& topo = *in_->env->topo;
  flock::EcmpRouter& router = *in_->env->router;
  const auto shards = static_cast<std::size_t>(in_->pipeline.num_shards);
  const auto id = static_cast<std::int64_t>(epoch);
  std::vector<std::vector<const flock::IngestDatagram*>> by_shard(shards);
  for (const flock::IngestDatagram& d : iv.datagrams) {
    by_shard.at(static_cast<std::size_t>(shard_of_->at(d.source_addr))).push_back(&d);
  }

  SyncInterval out;
  double max_decode_join = 0.0;
  double sum_localize = 0.0;
  std::vector<flock::EpochSnapshot> snapshots;
  std::vector<flock::LocalizationResult> results;
  flock::Rng pick(check_seed);
  for (std::size_t s = 0; s < shards; ++s) {
    flock::Collector collector(topo, router, in_->pipeline.collector);
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(tracer, "telemetry.decode", id);
      for (const flock::IngestDatagram* d : by_shard[s]) {
        if (!collector.ingest(d->bytes)) out.check_error = "sync decode rejected a datagram";
      }
      span.set_work(static_cast<double>(collector.pending_records()));
    }
    const auto records = static_cast<double>(collector.pending_records());
    flock::InferenceInput input = [&] {
      Tracer::Scope span(tracer, "telemetry.join", id, records);
      return collector.drain_into_input();
    }();
    max_decode_join = std::max(max_decode_join, seconds_between(t0, now_ns()));

    flock::LocalizationResult result;
    if (input.num_flows() > 0) {
      out.dedup_ratio.push_back(static_cast<double>(input.num_rows()) /
                                static_cast<double>(input.num_flows()));
      const flock::FlockParams& params = localizer_.options().params;
      if (core_spans) {
        Tracer::Scope span(tracer, "core.engine_build", id);
        const flock::LikelihoodEngine engine(input, params, localizer_.options().use_jle);
      }
      const std::int64_t t1 = now_ns();
      {
        const std::int32_t span = core_spans ? tracer.begin("core.localize", id) : -1;
        result = localizer_.localize(input);
        tracer.end(span);
        tracer.set_work(span, static_cast<double>(result.hypotheses_scanned));
      }
      sum_localize += seconds_between(t1, now_ns());

      // Independent check: the posterior of the returned hypothesis, and the
      // stopping rule on the interval's true faults plus a random sample.
      std::vector<ComponentId> candidates = interval_truth(*in_, iv);
      for (int k = 0; k < 8; ++k) {
        candidates.push_back(
            static_cast<ComponentId>(pick.next_below(static_cast<std::uint64_t>(topo.num_components()))));
      }
      const PosteriorModel model(input, params);
      const std::string err =
          check_localization(model, result.predicted, result.log_likelihood, candidates);
      if (!err.empty() && out.check_error.empty()) {
        out.check_error = "interval " + std::to_string(epoch) + " shard " + std::to_string(s) +
                          ": " + err;
      }
    }
    snapshots.push_back(flock::EpochSnapshot{epoch, static_cast<std::int32_t>(s),
                                             std::move(input), collector.unresolved_records(),
                                             flock::Stopwatch{}, 0});
    results.push_back(std::move(result));
  }

  const std::size_t merged_before = merged_.size();
  const std::int64_t t2 = now_ns();
  for (std::size_t s = 0; s < shards; ++s) {
    Tracer::Scope span(tracer, "pipeline.sink_add", id);
    sink_->add(snapshots[s], results[s]);
  }
  const std::int64_t t3 = now_ns();
  if (merged_.size() != merged_before + 1) {
    out.check_error = "standalone sink did not merge the interval";
    return out;
  }
  {
    Tracer::Scope span(tracer, "pipeline.tracker_observe", id);
    tracker_->observe(merged_.back());
  }
  const std::int64_t t4 = now_ns();
  out.merged = merged_.back().predicted;
  out.critical_path_s =
      max_decode_join + sum_localize + seconds_between(t2, t3) + seconds_between(t3, t4);
  return out;
}

namespace {

// F-score of each merged diagnosis against its interval's injected faults.
double mean_fscore(const StreamInputs& in, const IntervalRun& run) {
  double total = 0.0;
  for (std::size_t i = 0; i < run.diagnoses.size(); ++i) {
    const Interval& iv = in.pool[run.pool_index[i]];
    total += set_accuracy(interval_truth(in, iv), run.diagnoses[i]).fscore();
  }
  return total / static_cast<double>(run.diagnoses.size());
}

// Where each fault that persists through the whole run ends it in the
// tracker, itself or through a member of its ECMP equivalence class: an info
// line, "ground truth: <fault> <state> ..., <n>/<m> confirmed". It does not
// gate the run: on some seeds a persistent faulty link ends `flapping`
// (Flock blames a switch at one of its ends in a few intervals), so it would
// fail whole runs on some seeds and not others.
std::string ground_truth_line(const StreamInputs& in, const IntervalRun& run) {
  const auto classes = flock::ecmp_equivalence_classes(*in.env->router);
  const auto& faults = in.env->traces.front().truth.failed;
  std::string states;
  std::size_t confirmed = 0;
  for (ComponentId fault : faults) {
    std::vector<ComponentId> members{fault};
    for (const auto& cls : classes) {
      if (std::find(cls.begin(), cls.end(), fault) != cls.end()) members = cls;
    }
    std::string state = "never blamed";
    for (const auto& v : run.verdicts) {
      if (std::find(members.begin(), members.end(), v.component) == members.end()) continue;
      if (v.state == flock::ComponentHealth::kConfirmed) {
        state = "confirmed";
        break;
      }
      if (state == "never blamed") state = "";
      state += (state.empty() ? "" : ", ") + std::to_string(v.component) + " " +
               flock::to_string(v.state) + " (confirmations " +
               std::to_string(v.confirmations) + ")";
    }
    if (state == "confirmed") ++confirmed;
    states += " " + std::to_string(fault) + ": " + state + ";";
  }
  return "ground truth:" + states + " " + std::to_string(confirmed) + "/" +
         std::to_string(faults.size()) + " injected links confirmed";
}

}  // namespace

WorkloadResult run_stream(std::uint64_t seed, double seconds, bool trace, std::int64_t start_ns,
                          Tracer& tracer) {
  WorkloadResult r;
  StreamInputs in = build_stream_inputs(seed, tracer, trace);
  const double setup_s = seconds_between(start_ns, now_ns());
  Tracer off(false);
  std::uint64_t records = 0;
  for (const Interval& iv : in.pool) records += iv.records;
  r.info.push_back("pool: " + std::to_string(in.pool.size()) + " intervals, " +
                   std::to_string(records / in.pool.size()) + " records per interval, " +
                   std::to_string(in.env->topo->num_links()) + " links");

  if (!trace) {
    const IntervalRun run = run_rounds(in, 0, seconds, kAheadPasses, off);
    r.attempted = run.latency_s.size() + run.capacity_rate.size() * in.pool.size();
    r.failed = r.attempted - std::min<std::uint64_t>(r.attempted, run.epochs.size());

    std::string err = check_conservation(run.records, r.attempted, run.stats, run.epochs);
    SyncReplayer replayer(in, run.shard_of);
    for (std::size_t i : run.checked) {
      if (!err.empty()) break;
      const SyncInterval sync =
          replayer.replay(in.pool[run.pool_index[i]], i, off, false, seed_for(seed, 7000 + i));
      if (!sync.check_error.empty()) err = sync.check_error;
      else if (sync.merged != run.diagnoses[i]) {
        err = "interval " + std::to_string(i) + ": merged diagnosis differs from the "
              "union of the synchronous per-shard diagnoses";
      }
    }
    if (!err.empty()) {
      r.correct = false;
      r.error = err;
    }
    r.info.push_back(ground_truth_line(in, run));

    std::vector<double> latency_ms;
    for (double s : run.latency_s) latency_ms.push_back(s * 1e3);
    r.metrics["setup_s"] = {setup_s, "s"};
    r.metrics["records_per_s"] = {median(run.capacity_rate), "records/s"};
    r.metrics["epoch_p50_ms"] = {quantile(latency_ms, 0.5), "ms"};
    r.info.push_back("fscore: " + std::to_string(mean_fscore(in, run)));
    r.info.push_back("epoch_p90_ms: " + std::to_string(quantile(latency_ms, 0.9)));
    const auto per_epoch = [](std::uint64_t v, std::size_t epochs) {
      return std::to_string(static_cast<double>(v) / static_cast<double>(std::max<std::size_t>(1, epochs)));
    };
    r.info.push_back("interval phase: " + std::to_string(run.latency_s.size()) +
                     " intervals, arena reuses per epoch " +
                     per_epoch(run.reuses_in_flight, run.latency_s.size()) +
                     ", tracker behind the sink after " + std::to_string(run.tracker_lagged) +
                     " of them");
    r.info.push_back("capacity phase: " + std::to_string(run.capacity_rate.size()) +
                     " passes, records/s min " +
                     std::to_string(*std::min_element(run.capacity_rate.begin(),
                                                      run.capacity_rate.end())) +
                     " max " +
                     std::to_string(*std::max_element(run.capacity_rate.begin(),
                                                      run.capacity_rate.end())) +
                     ", arena reuses per epoch " +
                     per_epoch(run.reuses_ahead, run.capacity_rate.size() * in.pool.size()));
    return r;
  }

  // Traced run: the same rounds untraced, then traced, one interval in
  // flight; the diagnoses must match. The cost of tracing is the median
  // per-interval latency difference of the two times the interval count,
  // which a few slow intervals on either side do not move.
  const auto rounds = static_cast<std::size_t>(kMinRounds);
  const IntervalRun base = run_rounds(in, rounds, 0.0, 0, off);
  const IntervalRun run = run_rounds(in, rounds, 0.0, 0, tracer);
  r.attempted = run.latency_s.size();
  r.failed = r.attempted - std::min<std::uint64_t>(r.attempted, run.epochs.size());
  std::string err = check_conservation(run.records, r.attempted, run.stats, run.epochs);
  if (err.empty() && run.diagnoses != base.diagnoses) {
    err = "traced diagnoses differ from the untraced ones";
  }
  r.info.push_back(ground_truth_line(in, run));
  std::vector<double> overhead_ms;
  std::vector<double> critical_ms;
  std::vector<double> dedup;
  SyncReplayer replayer(in, run.shard_of);
  const std::size_t replayed = std::min<std::size_t>(run.latency_s.size(), 48);
  for (std::size_t i = 0; i < replayed && err.empty(); ++i) {
    const SyncInterval sync =
        replayer.replay(in.pool[run.pool_index[i]], i, tracer, true, seed_for(seed, 7000 + i));
    if (!sync.check_error.empty()) err = sync.check_error;
    else if (sync.merged != run.diagnoses[i]) {
      err = "interval " + std::to_string(i) + ": merged diagnosis differs from the sync path";
    }
    overhead_ms.push_back((base.latency_s[i] - sync.critical_path_s) * 1e3);
    critical_ms.push_back(sync.critical_path_s * 1e3);
    dedup.insert(dedup.end(), sync.dedup_ratio.begin(), sync.dedup_ratio.end());
  }
  for (std::size_t p = 0; p < in.pool.size(); ++p) {
    read_capture(in.pool[p].capture, tracer, static_cast<std::int64_t>(p));
  }
  if (err.empty()) err = offline_layers(*in.env, tracer);
  if (!err.empty()) {
    r.correct = false;
    r.error = err;
  }
  add_layer_metrics(tracer, r.metrics);
  if (!overhead_ms.empty()) r.metrics["pipeline.overhead_ms"] = {median(overhead_ms), "ms"};
  if (!dedup.empty()) r.metrics["core.dedup_ratio"] = {median(dedup), "rows/obs"};
  std::vector<double> traced_minus_untraced;
  for (std::size_t i = 0; i < run.latency_s.size(); ++i) {
    traced_minus_untraced.push_back(run.latency_s[i] - base.latency_s[i]);
  }
  r.metrics["trace.overhead_s"] = {
      median(traced_minus_untraced) * static_cast<double>(run.latency_s.size()), "s"};
  if (!overhead_ms.empty() && r.metrics.count("core.localize_ms") != 0) {
    // Where an interval's time goes, from the same traced run.
    std::vector<double> latency_ms;
    for (std::size_t i = 0; i < overhead_ms.size(); ++i) {
      latency_ms.push_back(base.latency_s[i] * 1e3);
    }
    const double p50 = median(latency_ms);
    r.info.push_back("interval latency p50 " + std::to_string(p50) +
                     " ms untraced; synchronous critical path p50 " +
                     std::to_string(median(critical_ms)) + " ms; localize " +
                     std::to_string(100.0 * r.metrics["core.localize_ms"].value / p50) +
                     "% and pipeline overhead " +
                     std::to_string(100.0 * median(overhead_ms) / p50) + "% of it");
  }
  return r;
}


void add_layer_metrics(const Tracer& tracer, MetricMap& m) {
  const auto put = [&](const char* metric, const char* unit, std::vector<double> samples,
                       double scale) {
    if (!samples.empty()) m[metric] = {median(std::move(samples)) * scale, unit};
  };
  put("telemetry.encode_ns_per_record", "ns", tracer.per_work("telemetry.encode"), 1e9);
  put("net.capture_MB_per_s", "MB/s", tracer.rates("net.capture"), 1e-6);
  put("net.replay_MB_per_s", "MB/s", tracer.rates("net.replay"), 1e-6);
  put("topology.router_warm_s", "s", tracer.durations("topology.router_warm"), 1.0);
  put("flowsim.simulate_s", "s", tracer.durations("flowsim.simulate"), 1.0);
  put("pipeline.offer_us_per_dgram", "us", tracer.per_work("pipeline.offer"), 1e6);
  put("pipeline.close_to_verdict_ms", "ms", tracer.durations("pipeline.close_to_verdict"), 1e3);
  put("telemetry.decode_ns_per_record", "ns", tracer.per_work("telemetry.decode"), 1e9);
  put("telemetry.join_ns_per_record", "ns", tracer.per_work("telemetry.join"), 1e9);
  put("core.engine_build_ms", "ms", tracer.durations("core.engine_build"), 1e3);
  put("core.localize_ms", "ms", tracer.durations("core.localize"), 1e3);
  put("core.hypotheses_per_s", "1/s", tracer.rates("core.localize"), 1.0);
  put("pipeline.sink_add_us", "us", tracer.durations("pipeline.sink_add"), 1e6);
  put("pipeline.tracker_observe_us", "us", tracer.durations("pipeline.tracker_observe"), 1e6);
  put("flowsim.make_view_ms", "ms", tracer.durations("flowsim.make_view"), 1e3);
  put("baselines.netbouncer_localize_ms", "ms", tracer.durations("baselines.netbouncer_localize"),
      1e3);
  put("baselines.zero07_localize_ms", "ms", tracer.durations("baselines.zero07_localize"), 1e3);
  put("calibration.flock_s", "s", tracer.durations("calibration.flock"), 1.0);
  put("calibration.netbouncer_s", "s", tracer.durations("calibration.netbouncer"), 1.0);
  put("calibration.zero07_s", "s", tracer.durations("calibration.zero07"), 1.0);
  put("eval.run_scheme_ms", "ms", tracer.durations("eval.run_scheme"), 1e3);
}

}  // namespace flockbench
