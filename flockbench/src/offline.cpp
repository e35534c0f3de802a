#include "offline.h"

#include <cmath>
#include <memory>

#include "baselines/netbouncer.h"
#include "baselines/zero07.h"
#include "calibration/calibrate_schemes.h"
#include "checks.h"
#include "common/rng.h"
#include "config.h"
#include "core/flock_localizer.h"
#include "core/likelihood_engine.h"
#include "flowsim/views.h"
#include "stream.h"

namespace flockbench {

namespace {

enum class Kind { kFlock, kNetBouncer, kZero07 };

struct Scheme {
  Kind kind;
  std::uint32_t telemetry;
  flock::ParamGrid grid;
};

// The calibrations of one cycle: Flock on A1+A2+P and on INT, NetBouncer on
// INT, 007 on A2 (the pairings of Fig 2 / Table 1).
std::vector<Scheme> repro_schemes() {
  return {{Kind::kFlock, flock::kTelemetryA1 | flock::kTelemetryA2 | flock::kTelemetryP,
           flock_grid()},
          {Kind::kFlock, flock::kTelemetryInt, flock_grid()},
          {Kind::kNetBouncer, flock::kTelemetryInt, netbouncer_grid()},
          {Kind::kZero07, flock::kTelemetryA2, zero07_grid()}};
}

std::unique_ptr<flock::Localizer> make_localizer(Kind kind, const std::vector<double>& params) {
  switch (kind) {
    case Kind::kFlock: {
      flock::FlockOptions options;
      options.params = flock::flock_params_from(params);
      options.localize_threads = kLocalizeThreads;
      return std::make_unique<flock::FlockLocalizer>(options);
    }
    case Kind::kNetBouncer:
      return std::make_unique<flock::NetBouncerLocalizer>(flock::netbouncer_options_from(params));
    case Kind::kZero07:
      return std::make_unique<flock::Zero07Localizer>(flock::zero07_options_from(params));
  }
  return nullptr;
}

const char* calibration_span(Kind kind) {
  switch (kind) {
    case Kind::kFlock: return "calibration.flock";
    case Kind::kNetBouncer: return "calibration.netbouncer";
    case Kind::kZero07: return "calibration.zero07";
  }
  return "";
}

const char* localize_span(Kind kind) {
  switch (kind) {
    case Kind::kFlock: return "core.localize";
    case Kind::kNetBouncer: return "baselines.netbouncer_localize";
    case Kind::kZero07: return "baselines.zero07_localize";
  }
  return "";
}

flock::CalibrationOutcome calibrate(Kind kind, const flock::ExperimentEnv& env,
                                    const flock::ViewOptions& view, const flock::ParamGrid& grid) {
  switch (kind) {
    case Kind::kFlock: return flock::calibrate_flock(env, view, grid);
    case Kind::kNetBouncer: return flock::calibrate_netbouncer(env, view, grid);
    case Kind::kZero07: return flock::calibrate_zero07(env, view, grid);
  }
  return {};
}

flock::ViewOptions view_of(std::uint32_t telemetry) {
  flock::ViewOptions view;
  view.telemetry = telemetry;
  return view;
}

std::size_t grid_points(const flock::ParamGrid& grid) {
  std::size_t n = 1;
  for (const auto& axis : grid.values) n *= axis.size();
  return n;
}

struct Cycle {
  std::vector<flock::CalibrationOutcome> outcomes;
  std::vector<flock::Accuracy> evaluation;  // chosen point on the test environment
  double wall_s = 0.0;
};

// Two cycles agree on the calibration; on the evaluation too when both ran on
// the same test environment.
bool same_cycle(const Cycle& a, const Cycle& b, bool same_test) {
  const auto same_acc = [](const flock::Accuracy& x, const flock::Accuracy& y) {
    return x.precision == y.precision && x.recall == y.recall;
  };
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t k = 0; k < a.outcomes.size(); ++k) {
    if (a.outcomes[k].chosen.params != b.outcomes[k].chosen.params ||
        !same_acc(a.outcomes[k].chosen.accuracy, b.outcomes[k].chosen.accuracy) ||
        (same_test && !same_acc(a.evaluation[k], b.evaluation[k]))) {
      return false;
    }
  }
  return true;
}

// The timed region: calibrate every scheme on the training environment,
// then evaluate each chosen point on the test environment.
Cycle run_cycle(const std::vector<Scheme>& schemes, const flock::ExperimentEnv& train,
                const flock::ExperimentEnv& test, Tracer& tracer) {
  Cycle c;
  const std::int64_t t0 = now_ns();
  for (const Scheme& s : schemes) {
    Tracer::Scope span(tracer, calibration_span(s.kind));
    c.outcomes.push_back(calibrate(s.kind, train, view_of(s.telemetry), s.grid));
  }
  for (std::size_t k = 0; k < schemes.size(); ++k) {
    const auto localizer = make_localizer(schemes[k].kind, c.outcomes[k].chosen.params);
    Tracer::Scope span(tracer, "eval.run_scheme");
    c.evaluation.push_back(flock::run_scheme_mean(*localizer, test, view_of(schemes[k].telemetry)));
  }
  c.wall_s = seconds_between(t0, now_ns());
  return c;
}

// The benchmark's own evaluation loop: view, localize, and precision/recall
// by set arithmetic against each trace's truth; Flock's results also pass
// the posterior recomputation. Must reproduce run_scheme_mean exactly.
// Adds the observations localized to `observations`, and each diagnosis
// latency of the first scheme (Flock on A1+A2+P; one test trace, view to
// verdict) to `latency_ms`.
std::string check_evaluation(const std::vector<Scheme>& schemes, const Cycle& cycle,
                             const flock::ExperimentEnv& test, std::uint64_t seed,
                             Tracer& tracer, std::vector<double>& dedup,
                             std::uint64_t& observations, std::vector<double>& latency_ms) {
  flock::Rng pick(seed);
  for (std::size_t k = 0; k < schemes.size(); ++k) {
    const Scheme& s = schemes[k];
    const std::vector<double>& params = cycle.outcomes[k].chosen.params;
    const auto localizer = make_localizer(s.kind, params);
    double precision = 0.0;
    double recall = 0.0;
    for (const flock::Trace& trace : test.traces) {
      const std::int64_t t0 = now_ns();
      const flock::InferenceInput input = [&] {
        Tracer::Scope span(tracer, "flowsim.make_view");
        return flock::make_view(*test.topo, *test.router, trace, view_of(s.telemetry));
      }();
      const std::int32_t span = tracer.begin(localize_span(s.kind));
      const flock::LocalizationResult result = localizer->localize(input);
      tracer.end(span);
      tracer.set_work(span, static_cast<double>(result.hypotheses_scanned));
      if (k == 0) latency_ms.push_back(seconds_between(t0, now_ns()) * 1e3);
      observations += input.num_flows();
      if (s.kind == Kind::kFlock && input.num_flows() > 0) {
        dedup.push_back(static_cast<double>(input.num_rows()) /
                        static_cast<double>(input.num_flows()));
        Tracer::Scope engine_span(tracer, "core.engine_build");
        const flock::LikelihoodEngine engine(input, flock::flock_params_from(params));
      }
      const SetAccuracy acc = set_accuracy(trace.truth.failed, result.predicted);
      precision += acc.precision;
      recall += acc.recall;
      if (s.kind == Kind::kFlock) {
        std::vector<flock::ComponentId> candidates = trace.truth.failed;
        for (int i = 0; i < 8; ++i) {
          candidates.push_back(static_cast<flock::ComponentId>(
              pick.next_below(static_cast<std::uint64_t>(test.topo->num_components()))));
        }
        const PosteriorModel model(input, flock::flock_params_from(params));
        const std::string err =
            check_localization(model, result.predicted, result.log_likelihood, candidates);
        if (!err.empty()) return "repro Flock evaluation: " + err;
      }
    }
    const auto n = static_cast<double>(test.traces.size());
    const flock::Accuracy& reported = cycle.evaluation[k];
    if (std::abs(precision / n - reported.precision) > 1e-12 ||
        std::abs(recall / n - reported.recall) > 1e-12) {
      return "scheme " + std::to_string(k) + ": own evaluation loop disagrees with run_scheme_mean";
    }
  }
  return {};
}

flock::EnvConfig env_config(std::int32_t traces, std::uint64_t seed) {
  flock::EnvConfig c;
  c.clos = default_clos();
  c.num_traces = traces;
  c.failure = flock::FailureKind::kSilentLinkDrops;
  c.min_failures = kMinFailures;
  c.max_failures = kMaxFailures;
  c.traffic.num_app_flows = kReproAppFlows;
  c.seed = seed;
  return c;
}

// Traced-run pass over the stream layers on the test environment: its traces
// encoded, captured and streamed through the service twice over, one
// interval in flight, then replayed through the synchronous path.
std::string stream_layers(std::unique_ptr<flock::ExperimentEnv> env, std::uint64_t seed,
                          Tracer& tracer, std::vector<double>& overhead_ms) {
  {
    flock::EcmpRouter fresh(*env->topo);
    Tracer::Scope span(tracer, "topology.router_warm");
    fresh.build_all_tor_pairs();
  }
  env->router->build_all_tor_pairs();
  StreamInputs in;
  in.pipeline = service_config();
  in.env = std::move(env);
  for (std::size_t t = 0; t < in.env->traces.size(); ++t) {
    Interval iv = encode_interval(*in.env->topo, in.env->traces[t], t,
                                  1700000000u + 10u * static_cast<std::uint32_t>(t), tracer);
    capture_interval(iv, tracer);
    in.pool.push_back(std::move(iv));
  }
  Tracer off(false);
  const IntervalRun base = run_rounds(in, 2, 0.0, 0, off);
  const IntervalRun run = run_rounds(in, 2, 0.0, 0, tracer);
  std::string err = check_conservation(run.records, run.latency_s.size(), run.stats, run.epochs);
  if (err.empty() && run.diagnoses != base.diagnoses) err = "traced diagnoses differ";
  SyncReplayer replayer(in, run.shard_of);
  for (std::size_t i = 0; i < run.latency_s.size() && err.empty(); ++i) {
    const SyncInterval sync =
        replayer.replay(in.pool[run.pool_index[i]], i, tracer, false, seed_for(seed, 9000 + i));
    if (!sync.check_error.empty()) err = sync.check_error;
    else if (sync.merged != run.diagnoses[i]) err = "merged diagnosis differs from the sync path";
    overhead_ms.push_back((base.latency_s[i] - sync.critical_path_s) * 1e3);
  }
  for (std::size_t p = 0; p < in.pool.size(); ++p) {
    read_capture(in.pool[p].capture, tracer, static_cast<std::int64_t>(p));
  }
  return err;
}

}  // namespace

std::string offline_layers(flock::ExperimentEnv& env, Tracer& tracer) {
  std::vector<flock::Trace> saved = std::move(env.traces);
  env.traces.assign(saved.begin(), saved.begin() + std::min<std::size_t>(2, saved.size()));
  const flock::ViewOptions service_view = view_of(flock::kTelemetryA1 | flock::kTelemetryP);
  std::string err;
  for (const flock::Trace& trace : env.traces) {
    const auto view = [&](std::uint32_t telemetry) {
      Tracer::Scope span(tracer, "flowsim.make_view");
      return flock::make_view(*env.topo, *env.router, trace, view_of(telemetry));
    };
    view(flock::kTelemetryA1 | flock::kTelemetryP);
    const flock::InferenceInput int_view = view(flock::kTelemetryInt);
    const flock::InferenceInput a2_view = view(flock::kTelemetryA2);
    {
      Tracer::Scope span(tracer, "baselines.netbouncer_localize");
      flock::NetBouncerLocalizer(flock::NetBouncerOptions{}).localize(int_view);
    }
    {
      Tracer::Scope span(tracer, "baselines.zero07_localize");
      flock::Zero07Localizer(flock::Zero07Options{}).localize(a2_view);
    }
  }
  flock::CalibrationOutcome chosen;
  {
    Tracer::Scope span(tracer, "calibration.flock");
    chosen = flock::calibrate_flock(env, service_view, tiny_flock_grid());
  }
  err = check_selection(chosen);
  {
    Tracer::Scope span(tracer, "calibration.netbouncer");
    const auto nb = flock::calibrate_netbouncer(env, view_of(flock::kTelemetryInt),
                                                tiny_netbouncer_grid());
    if (err.empty()) err = check_selection(nb);
  }
  {
    Tracer::Scope span(tracer, "calibration.zero07");
    const auto z = flock::calibrate_zero07(env, view_of(flock::kTelemetryA2), tiny_zero07_grid());
    if (err.empty()) err = check_selection(z);
  }
  {
    const auto localizer = make_localizer(Kind::kFlock, chosen.chosen.params);
    Tracer::Scope span(tracer, "eval.run_scheme");
    flock::run_scheme_mean(*localizer, env, service_view);
  }
  env.traces = std::move(saved);
  return err;
}

WorkloadResult run_repro(std::uint64_t seed, double seconds, bool trace, std::int64_t start_ns,
                         Tracer& tracer) {
  WorkloadResult r;
  std::unique_ptr<flock::ExperimentEnv> train;
  std::vector<std::unique_ptr<flock::ExperimentEnv>> tests;
  {
    Tracer::Scope span(tracer, "flowsim.simulate");
    train = flock::make_env(env_config(kTrainTraces, seed_for(seed, 1)));
  }
  for (std::int32_t e = 0; e < kTestEnvs; ++e) {
    Tracer::Scope span(tracer, "flowsim.simulate");
    tests.push_back(flock::make_env(env_config(kTestTraces, seed_for(seed, 2 + 100 * e))));
  }
  const double setup_s = seconds_between(start_ns, now_ns());
  const std::vector<Scheme> schemes = repro_schemes();
  Tracer off(false);

  // Each cycle: the timed calibrate+evaluate region, then the benchmark's
  // own evaluation loop (checks, and per-trace diagnosis latency). Cycle c
  // evaluates on test environment c mod kTestEnvs. The traced run makes
  // three on the first test environment: an untraced warm-up, an untraced
  // one and a traced one, whose wall times give the cost of tracing.
  std::vector<Cycle> cycles;
  std::vector<std::uint64_t> evaluated;  // observations the evaluation localizes, per cycle
  std::vector<double> dedup;
  std::vector<double> latency_ms;
  std::string err;
  const std::int64_t begin = now_ns();
  do {
    const std::size_t i = cycles.size();
    const std::size_t e = trace ? 0 : i % tests.size();
    Tracer& t = trace && i == 2 ? tracer : off;
    cycles.push_back(run_cycle(schemes, *train, *tests[e], t));
    const Cycle& c = cycles.back();
    const std::size_t prev = i >= tests.size() ? i - tests.size() : 0;
    if (err.empty() && !same_cycle(c, cycles[prev], trace || i >= tests.size())) {
      err = "calibration cycles disagree";
    }
    for (std::size_t k = 0; k < schemes.size() && err.empty(); ++k) {
      err = check_selection(c.outcomes[k]);
      if (!err.empty()) err = "scheme " + std::to_string(k) + ": " + err;
    }
    evaluated.push_back(0);
    if (err.empty()) {
      err = check_evaluation(schemes, c, *tests[e], seed_for(seed, 3), t, dedup,
                             evaluated.back(), latency_ms);
    }
  } while (trace ? cycles.size() < 3 : seconds_between(begin, now_ns()) < seconds);
  r.attempted = cycles.size() * schemes.size();

  // Observations the sweep localizes: every grid point over every training
  // trace, in that scheme's view.
  std::uint64_t swept = 0;
  for (const Scheme& s : schemes) {
    std::uint64_t per_point = 0;
    for (const flock::Trace& t : train->traces) {
      per_point += flock::make_view(*train->topo, *train->router, t, view_of(s.telemetry))
                       .num_flows();
    }
    swept += per_point * grid_points(s.grid);
  }

  if (!trace) {
    std::vector<double> rates;
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      rates.push_back(static_cast<double>(swept + evaluated[i]) / cycles[i].wall_s);
    }
    r.metrics["setup_s"] = {setup_s, "s"};
    r.metrics["records_per_s"] = {median(rates), "records/s"};
    r.metrics["epoch_p50_ms"] = {quantile(latency_ms, 0.5), "ms"};
    r.info.push_back("fscore: " + std::to_string((cycles.front().evaluation[0].fscore() +
                                                  cycles.front().evaluation[1].fscore()) /
                                                 2.0));
    r.info.push_back("epoch_p90_ms: " + std::to_string(quantile(latency_ms, 0.9)));
    r.info.push_back("cycles: " + std::to_string(cycles.size()) + ", observations per cycle " +
                     std::to_string(swept + evaluated.front()) + " (first test environment)");
  } else {
    std::vector<double> overhead_ms;
    if (err.empty()) err = stream_layers(std::move(tests.front()), seed, tracer, overhead_ms);
    add_layer_metrics(tracer, r.metrics);
    if (!overhead_ms.empty()) r.metrics["pipeline.overhead_ms"] = {median(overhead_ms), "ms"};
    if (!dedup.empty()) r.metrics["core.dedup_ratio"] = {median(dedup), "rows/obs"};
    r.metrics["trace.overhead_s"] = {cycles[2].wall_s - cycles[1].wall_s, "s"};
  }
  if (!err.empty()) {
    r.correct = false;
    r.error = err;
  }
  return r;
}

}  // namespace flockbench
