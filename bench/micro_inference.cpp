// Inference-core micro benchmark: the §7.8 "hypotheses scanned per second"
// numbers decompose into these primitives, measured over the columnar
// FlowTable on a passive-heavy epoch (the paper's structural sweet spot:
// many small flows between few host pairs, almost all with zero drops).
//
// Two measured A/B levers, both gated:
//   * Weighted row dedup: the same observation multiset is localized from a
//     deduplicated table and from a row-per-observation table (identical
//     group-major layout, weight 1 everywhere). Gate: dedup must deliver
//     >= 2x localization throughput (observations/sec through
//     FlockLocalizer, engine construction included) on this epoch, and both
//     tables must produce the *identical* prediction.
//   * SIMD dispatch: the weighted log-sum kernel (common/simd.h) run over
//     this epoch's real group/row/weight columns, forced scalar vs the best
//     level the CPU supports. Gate: >= 1.5x kernel row throughput on an
//     AVX2 machine, with bit-identical sums and byte-identical localization
//     predictions at every level (the dispatch contract — FLOCK_FORCE_SCALAR
//     is a pure performance lever, never a result change).
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "bench_common.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/flock_localizer.h"
#include "core/likelihood_engine.h"
#include "flowsim/scenario.h"
#include "flowsim/simulate.h"
#include "flowsim/views.h"
#include "topology/topology.h"

int main() {
  using namespace flock;
  using namespace flock::bench;

  print_header("Inference core: weighted dedup + group-major scan on a passive-heavy epoch",
               "the §7.8 inference-runtime decomposition");

  const Topology topo = make_fat_tree(4);
  EcmpRouter router(topo);
  Rng rng(99);
  DropRateConfig rates;
  rates.bad_min = 5e-3;
  GroundTruth truth = make_silent_link_drops(topo, 2, rates, rng);
  TrafficConfig traffic;
  traffic.num_app_flows = scaled_flows(120000);
  ProbeConfig probes;
  probes.enabled = false;
  const Trace trace = simulate(topo, router, std::move(truth), traffic, probes, rng);
  ViewOptions view;
  view.telemetry = kTelemetryA2 | kTelemetryP;

  FlockParams params;
  params.p_g = 1e-4;
  params.p_b = 6e-3;

  // The same observation multiset, deduplicated and row-per-observation.
  InferenceInput deduped(topo, router);
  InferenceInput raw(topo, router, /*dedup_rows=*/false);
  {
    const InferenceInput once = make_view(topo, router, trace, view);
    for (const FlowObservation& obs : once.expanded_flows()) {
      deduped.add(obs);
      raw.add(obs);
    }
  }
  const auto observations = static_cast<double>(deduped.num_flows());
  std::cout << "epoch: " << deduped.num_flows() << " observations ("
            << deduped.table().num_groups() << " host-pair groups) -> " << deduped.num_rows()
            << " weighted rows (" << Table::num(observations / static_cast<double>(
                                                                   deduped.num_rows()),
                                                1)
            << "x dedup)\n\n";

  FlockOptions opt;
  opt.params = params;
  opt.use_jle = true;
  const FlockLocalizer localizer(opt);
  constexpr int kReps = 3;  // best-of-3: scheduling noise dominates short runs

  Table table({"input", "stage", "seconds", "obs/s", "vs raw rows"});
  BenchJson json("micro_inference");
  // A failed self-gate is counted, not returned at once: the run finishes and
  // writes every JSON row first, so one failed ratio does not also read as
  // missing baseline rows.
  int gate_failures = 0;
  double rate_localize_dedup = 0.0, rate_localize_raw = 0.0;
  std::vector<ComponentId> predicted_dedup, predicted_raw;

  for (const bool dedup : {false, true}) {
    const InferenceInput& input = dedup ? deduped : raw;

    double construct_best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch watch;
      LikelihoodEngine engine(input, params, /*maintain_delta=*/true);
      const double seconds = watch.seconds();
      if (engine.num_components() == 0) {
        std::cerr << "FAIL: engine built over an empty component space\n";
        return 1;
      }
      if (rep == 0 || seconds < construct_best) construct_best = seconds;
    }

    double localize_best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch watch;
      const LocalizationResult result = localizer.localize(input);
      const double seconds = watch.seconds();
      if (rep == 0 || seconds < localize_best) localize_best = seconds;
      (dedup ? predicted_dedup : predicted_raw) = result.predicted;
    }

    const double construct_rate = observations / construct_best;
    const double localize_rate = observations / localize_best;
    if (dedup) {
      rate_localize_dedup = localize_rate;
    } else {
      rate_localize_raw = localize_rate;
    }
    const char* label = dedup ? "deduped" : "raw rows";
    table.add_row({label, "construct", Table::num(construct_best, 4),
                   Table::num(construct_rate, 0), "-"});
    table.add_row({label, "localize", Table::num(localize_best, 4),
                   Table::num(localize_rate, 0),
                   dedup ? Table::num(localize_rate / rate_localize_raw, 2) : "-"});
    json.add_row({{"dedup", dedup ? 1.0 : 0.0},
                  {"localize", 0.0},
                  {"seconds", construct_best},
                  {"records_per_sec", construct_rate}});
    json.add_row({{"dedup", dedup ? 1.0 : 0.0},
                  {"localize", 1.0},
                  {"seconds", localize_best},
                  {"records_per_sec", localize_rate}});
  }

  // Single-iteration primitives on the deduped table (informational).
  {
    LikelihoodEngine engine(deduped, params, /*maintain_delta=*/true);
    const ComponentId c = engine.best_addition().first;
    constexpr int kFlips = 200;
    Stopwatch watch;
    for (int i = 0; i < kFlips; ++i) {
      engine.flip(c);
      engine.flip(c);
    }
    table.add_row({"deduped", "flip pair", Table::num(watch.seconds() / kFlips, 6),
                   "-", "-"});
  }

  table.print(std::cout);

  if (predicted_dedup != predicted_raw) {
    std::cerr << "FAIL: dedup changed the localization result (" << predicted_dedup.size()
              << " vs " << predicted_raw.size() << " components)\n";
    ++gate_failures;
  }
  const double ratio = rate_localize_dedup / rate_localize_raw;
  std::cout << "\ndedup localization speedup: " << Table::num(ratio, 2)
            << "x (required >= 2.0 on this passive-heavy epoch)"
            << (predicted_dedup == predicted_raw ? ", identical prediction" : "") << "\n";
  if (ratio < 2.0) {
    std::cerr << "FAIL: weighted dedup only reaches " << ratio
              << "x localization throughput (required >= 2.0)\n";
    ++gate_failures;
  }

  // --- SIMD kernel A/B on the same epoch's real columns ----------------------
  // The engine's one hot shape: per path-set group, Σ_rows wt·log(b·e^s +
  // (w−b)) with b the hypothesis's bad-path count. Extract exactly those
  // columns from the deduped table (es precomputed, weights as doubles,
  // per-group b within [1, w−1] — the b=0 and b=w cases short-circuit before
  // the kernel) and time the kernel alone, forced scalar vs best level.
  struct KernelSeg {
    std::size_t offset = 0;
    std::size_t rows = 0;
    double a = 1.0;  // bad-path count b
    double c = 1.0;  // w − b
  };
  std::vector<double> col_es, col_wt;
  std::vector<KernelSeg> segs;
  for (const FlowGroup& g : deduped.table().groups()) {
    const auto width =
        static_cast<std::int64_t>(router.path_set(g.path_set).paths.size());
    if (width < 2) continue;  // b ∈ [1, w−1] needs at least two candidate paths
    KernelSeg seg;
    seg.offset = col_es.size();
    seg.a = static_cast<double>(1 + static_cast<std::int64_t>(segs.size()) % (width - 1));
    seg.c = static_cast<double>(width) - seg.a;
    for (std::size_t r = 0; r < g.size(); ++r) {
      const double s =
          bad_path_log_evidence(g.bad[r], g.packets[r], params.p_g, params.p_b);
      if (s > 690.0) continue;  // the engine's scalar extreme-evidence tail
      col_es.push_back(std::exp(s));
      col_wt.push_back(static_cast<double>(g.weight[r]));
    }
    seg.rows = col_es.size() - seg.offset;
    if (seg.rows > 0) segs.push_back(seg);
  }
  const std::size_t kernel_rows = col_es.size();
  std::cout << "\nkernel columns: " << kernel_rows << " weighted rows in " << segs.size()
            << " path-set groups\n\n";

  Table kernel_table({"kernel", "seconds", "rows/s", "vs scalar"});
  const simd::Level best_level = simd::max_supported_level();
  const int kernel_iters = std::max<int>(1, static_cast<int>(20000000 / (kernel_rows + 1)));
  double rate_kernel_scalar = 0.0, rate_kernel_simd = 0.0;
  double sum_scalar = 0.0, sum_simd = 0.0;
  for (const simd::Level level : {simd::Level::kScalar, best_level}) {
    simd::set_level(level);
    double best_seconds = 0.0;
    double checksum = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      checksum = 0.0;
      Stopwatch watch;
      for (int it = 0; it < kernel_iters; ++it) {
        for (const KernelSeg& seg : segs) {
          checksum += simd::weighted_log_sum(col_es.data() + seg.offset,
                                             col_wt.data() + seg.offset, seg.rows, seg.a,
                                             seg.c);
        }
      }
      const double seconds = watch.seconds();
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
    }
    const double rows_per_sec =
        static_cast<double>(kernel_rows) * kernel_iters / best_seconds;
    if (level == simd::Level::kScalar) {
      rate_kernel_scalar = rows_per_sec;
      sum_scalar = checksum;
    } else {
      rate_kernel_simd = rows_per_sec;
      sum_simd = checksum;
    }
    kernel_table.add_row({simd::level_name(level), Table::num(best_seconds, 4),
                          Table::num(rows_per_sec, 0),
                          level == simd::Level::kScalar
                              ? "-"
                              : Table::num(rows_per_sec / rate_kernel_scalar, 2)});
    json.add_row({{"kernel", 1.0},
                  {"simd", level == simd::Level::kScalar ? 0.0 : 1.0},
                  {"seconds", best_seconds},
                  {"records_per_sec", rows_per_sec}});
  }
  kernel_table.print(std::cout);

  if (sum_simd != sum_scalar) {
    std::cerr << "FAIL: kernel checksums differ between " << simd::level_name(best_level)
              << " and scalar (dispatch contract: bit-identical)\n";
    ++gate_failures;
  }

  // Full localizer under each dispatch level: the end-to-end view of the
  // kernel win, and the byte-identical-prediction check at the result level.
  Table simd_table({"localize", "seconds", "obs/s", "vs scalar"});
  double rate_loc_scalar = 0.0, rate_loc_simd = 0.0;
  std::vector<ComponentId> predicted_scalar, predicted_simd;
  for (const simd::Level level : {simd::Level::kScalar, best_level}) {
    simd::set_level(level);
    double best_seconds = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch watch;
      const LocalizationResult result = localizer.localize(deduped);
      const double seconds = watch.seconds();
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
      (level == simd::Level::kScalar ? predicted_scalar : predicted_simd) = result.predicted;
    }
    const double obs_per_sec = observations / best_seconds;
    if (level == simd::Level::kScalar) {
      rate_loc_scalar = obs_per_sec;
    } else {
      rate_loc_simd = obs_per_sec;
    }
    simd_table.add_row({simd::level_name(level), Table::num(best_seconds, 4),
                        Table::num(obs_per_sec, 0),
                        level == simd::Level::kScalar
                            ? "-"
                            : Table::num(obs_per_sec / rate_loc_scalar, 2)});
    json.add_row({{"dedup", 1.0},
                  {"localize", 1.0},
                  {"simd", level == simd::Level::kScalar ? 0.0 : 1.0},
                  {"seconds", best_seconds},
                  {"records_per_sec", obs_per_sec}});
  }
  std::cout << "\n";
  simd_table.print(std::cout);

  // --- Intra-epoch parallelism A/B (common/parallel_for.h) -------------------
  // The no-JLE localizer is the embarrassingly parallel surface: every
  // candidate is evaluated from scratch each iteration. Thread count is a
  // pure performance lever — predictions AND reported log posteriors must
  // be byte-identical at 1/2/4 threads always; the >= 1.5x speedup at 4
  // threads is gated only on machines with >= 4 cores (elsewhere the leg
  // still runs for the identity checks and records informational rows).
  const unsigned hw_threads = std::thread::hardware_concurrency();
  Table threads_table({"threads", "seconds", "obs/s", "vs 1 thread", "steal %"});
  double rate_threads_1 = 0.0, rate_threads_4 = 0.0;
  std::vector<ComponentId> predicted_threads_1;
  double ll_threads_1 = 0.0;
  bool threads_identical = true;
  for (const std::int32_t t : {1, 2, 4}) {
    FlockOptions nojle = opt;
    nojle.use_jle = false;
    nojle.localize_threads = t;
    const FlockLocalizer nojle_localizer(nojle);
    double best_seconds = 0.0;
    LocalizationResult result;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch watch;
      result = nojle_localizer.localize(deduped);
      const double seconds = watch.seconds();
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
    }
    const double obs_per_sec = observations / best_seconds;
    if (t == 1) {
      rate_threads_1 = obs_per_sec;
      predicted_threads_1 = result.predicted;
      ll_threads_1 = result.log_likelihood;
    } else {
      if (t == 4) rate_threads_4 = obs_per_sec;
      if (result.predicted != predicted_threads_1 ||
          std::memcmp(&result.log_likelihood, &ll_threads_1, sizeof(double)) != 0) {
        threads_identical = false;
      }
    }
    const double steal_pct =
        result.parallel_chunks > 0
            ? 100.0 * static_cast<double>(result.parallel_steals) /
                  static_cast<double>(result.parallel_chunks)
            : 0.0;
    threads_table.add_row({Table::num(t, 0), Table::num(best_seconds, 4),
                           Table::num(obs_per_sec, 0),
                           t == 1 ? "-" : Table::num(obs_per_sec / rate_threads_1, 2),
                           Table::num(steal_pct, 1)});
    json.add_row({{"threads", static_cast<double>(t)},
                  {"seconds", best_seconds},
                  {"records_per_sec", obs_per_sec}});
  }
  std::cout << "\n";
  threads_table.print(std::cout);
  if (!threads_identical) {
    std::cerr << "FAIL: localize_threads changed the no-JLE result (determinism contract: "
                 "byte-identical predictions and bit-equal log posteriors)\n";
    ++gate_failures;
  }
  // JLE mode parallelizes only the engine's memo batch-fill; the identity
  // contract holds there too (informational — no timing gate).
  {
    FlockOptions jle4 = opt;
    jle4.localize_threads = 4;
    const LocalizationResult team = FlockLocalizer(jle4).localize(deduped);
    const LocalizationResult serial = localizer.localize(deduped);
    if (team.predicted != serial.predicted ||
        std::memcmp(&team.log_likelihood, &serial.log_likelihood, sizeof(double)) != 0) {
      std::cerr << "FAIL: localize_threads changed the JLE result\n";
      ++gate_failures;
    }
  }
  const double threads_ratio = rate_threads_4 / rate_threads_1;
  std::cout << "\n4-thread no-JLE localize speedup: " << Table::num(threads_ratio, 2)
            << "x (required >= 1.5 on >= 4 cores; this machine has " << hw_threads
            << ")" << (threads_identical ? ", identical results at every thread count" : "")
            << "\n";
  if (hw_threads >= 4 && threads_ratio < 1.5) {
    std::cerr << "FAIL: 4 localize threads only reach " << threads_ratio
              << "x serial throughput (required >= 1.5 on a >= 4-core machine)\n";
    ++gate_failures;
  }

  if (predicted_simd != predicted_scalar) {
    std::cerr << "FAIL: SIMD dispatch changed the localization result ("
              << predicted_simd.size() << " vs " << predicted_scalar.size()
              << " components)\n";
    ++gate_failures;
  }
  if (best_level == simd::Level::kScalar) {
    std::cout << "\nno SIMD level on this CPU: kernel A/B is scalar-vs-scalar, "
                 "speedup gate skipped\n";
  } else {
    const double kernel_ratio = rate_kernel_simd / rate_kernel_scalar;
    std::cout << "\n" << simd::level_name(best_level) << " kernel speedup: "
              << Table::num(kernel_ratio, 2) << "x (required >= 1.5), localize speedup: "
              << Table::num(rate_loc_simd / rate_loc_scalar, 2) << "x"
              << (predicted_simd == predicted_scalar ? ", identical predictions" : "") << "\n";
    if (kernel_ratio < 1.5) {
      std::cerr << "FAIL: " << simd::level_name(best_level) << " kernel only reaches "
                << kernel_ratio << "x scalar throughput (required >= 1.5)\n";
      ++gate_failures;
    }
  }
  json.write();
  return gate_failures > 0 ? 1 : 0;
}
