// Fig 2a/2b: accuracy on silent packet drops, across telemetry types, at two
// monitoring volumes. Every scheme/input combination is calibrated on a
// training environment (§5.2) and evaluated on a fresh test environment.
// Prints the calibrated operating points at both flow scales, the error-
// reduction factors the paper headlines, and precision/recall tradeoff
// points (the hyper-parameter sweeps behind the paper's curves).
//
// Expected shape (paper): Flock(INT) and Flock(A1+A2+P) best; passive data
// (P) boosts the active-only inputs; NetBouncer below Flock on the same
// input; 007(A2) trailing.
#include "bench_common.h"

#include <iostream>
#include <map>

namespace flock {
namespace {

using bench::compact_flock_grid;
using bench::compact_netbouncer_grid;
using bench::compact_zero07_grid;
using bench::default_clos;
using bench::scaled_flows;

EnvConfig base_config(std::int64_t flows, std::uint64_t seed) {
  EnvConfig cfg;
  cfg.clos = default_clos();
  cfg.num_traces = 6;
  cfg.failure = FailureKind::kSilentLinkDrops;
  cfg.min_failures = 1;
  cfg.max_failures = 8;
  cfg.rates.bad_min = 1e-3;  // §7.1: failed links drop 0.1% - 1%
  cfg.rates.bad_max = 1e-2;
  cfg.traffic.num_app_flows = flows;
  cfg.probes.packets_per_probe = 100;
  cfg.seed = seed;
  return cfg;
}

struct Combo {
  std::string scheme;
  std::string input;
  std::uint32_t telemetry;
};

int run() {
  bench::print_header("Silent packet drops: accuracy vs telemetry type", "Fig 2a / 2b");

  const std::vector<Combo> combos = {
      {"Flock", "INT", kTelemetryInt},
      {"Flock", "A1+A2+P", kTelemetryA1 | kTelemetryA2 | kTelemetryP},
      {"Flock", "A1+P", kTelemetryA1 | kTelemetryP},
      {"Flock", "A2", kTelemetryA2},
      {"Flock", "A1", kTelemetryA1},
      {"NetBouncer", "INT", kTelemetryInt},
      {"NetBouncer", "A1", kTelemetryA1},
      {"007", "A2", kTelemetryA2},
  };

  // --- per-combo calibration on the training environment (§5.2) ------------
  // Calibration happens at the *large* monitoring volume: hyper-parameters
  // (especially p_b under flagged-only A2 telemetry) are sensitive to the
  // flow volume, which is exactly the "different monitoring interval"
  // robustness axis of Table 1.
  EnvConfig train_cfg = base_config(scaled_flows(40000), /*seed=*/1001);
  train_cfg.num_traces = 4;
  const auto train = make_env(train_cfg);
  std::vector<CalibrationOutcome> calibrations;
  std::cout << "calibration (train environment):\n";
  for (const Combo& combo : combos) {
    ViewOptions view;
    view.telemetry = combo.telemetry;
    CalibrationOutcome outcome;
    if (combo.scheme == "Flock") {
      outcome = calibrate_flock(*train, view, compact_flock_grid());
    } else if (combo.scheme == "NetBouncer") {
      outcome = calibrate_netbouncer(*train, view, compact_netbouncer_grid());
    } else {
      outcome = calibrate_zero07(*train, view, compact_zero07_grid());
    }
    std::cout << "  " << combo.scheme << "(" << combo.input << "): params =";
    for (double p : outcome.chosen.params) std::cout << " " << p;
    std::cout << "  train " << bench::fmt_acc(outcome.chosen.accuracy) << "\n";
    calibrations.push_back(std::move(outcome));
  }

  auto make_localizer = [&](const Combo& combo,
                            const std::vector<double>& params) -> std::unique_ptr<Localizer> {
    if (combo.scheme == "Flock") {
      FlockOptions opt;
      opt.params = flock_params_from(params);
      return std::make_unique<FlockLocalizer>(opt);
    }
    if (combo.scheme == "NetBouncer") {
      return std::make_unique<NetBouncerLocalizer>(netbouncer_options_from(params));
    }
    return std::make_unique<Zero07Localizer>(zero07_options_from(params));
  };

  // --- test: two monitoring volumes (100K / 400K in the paper) -------------
  const std::int64_t small_flows = scaled_flows(10000);
  const std::int64_t large_flows = scaled_flows(40000);
  Table table({"scheme", "input", "flows", "precision", "recall", "fscore"});
  std::map<std::string, double> err_at_large;
  for (const std::int64_t flows : {small_flows, large_flows}) {
    const auto test = make_env(base_config(flows, /*seed=*/2002));
    for (std::size_t i = 0; i < combos.size(); ++i) {
      ViewOptions view;
      view.telemetry = combos[i].telemetry;
      const auto localizer = make_localizer(combos[i], calibrations[i].chosen.params);
      const Accuracy acc = run_scheme_mean(*localizer, *test, view);
      table.add_row({combos[i].scheme, combos[i].input, Table::integer(flows),
                     Table::num(acc.precision), Table::num(acc.recall),
                     Table::num(acc.fscore())});
      if (flows == large_flows) {
        err_at_large[combos[i].scheme + "(" + combos[i].input + ")"] = acc.error();
      }
    }
  }
  std::cout << "\n";
  table.print(std::cout);

  std::cout << "\nerror-reduction factors at " << large_flows
            << " flows (paper: 5.5x A2, >1.19x A1, 12x INT):\n";
  auto show_ratio = [&](const std::string& label, const std::string& base,
                        const std::string& ours) {
    const double b = err_at_large[base];
    const double o = err_at_large[ours];
    std::cout << "  " << label << ": ";
    if (o <= 0) {
      std::cout << (b > 0 ? "inf (Flock made no errors)" : "both exact") << "\n";
    } else {
      std::cout << Table::num(b / o, 2) << "x\n";
    }
  };
  show_ratio("Flock(A2)  vs 007(A2)        ", "007(A2)", "Flock(A2)");
  show_ratio("Flock(A1)  vs NetBouncer(A1) ", "NetBouncer(A1)", "Flock(A1)");
  show_ratio("Flock(INT) vs NetBouncer(INT)", "NetBouncer(INT)", "Flock(INT)");

  // --- tradeoff curves: frontier settings re-evaluated on the test set -----
  std::cout << "\nprecision/recall tradeoff points (Fig 2 curves), " << large_flows
            << " flows:\n";
  const auto test = make_env(base_config(large_flows, /*seed=*/2002));
  Table curve({"scheme", "input", "params", "precision", "recall"});
  for (std::size_t i = 0; i < combos.size(); ++i) {
    if (combos[i].input != "INT" && combos[i].input != "A2" && combos[i].input != "A1") continue;
    for (const auto& point : calibrations[i].frontier) {
      ViewOptions view;
      view.telemetry = combos[i].telemetry;
      const auto localizer = make_localizer(combos[i], point.params);
      const Accuracy acc = run_scheme_mean(*localizer, *test, view);
      std::string params;
      for (double p : point.params) {
        if (!params.empty()) params.append(",");
        params.append(Table::num(p, 4));
      }
      curve.add_row({combos[i].scheme, combos[i].input, params, Table::num(acc.precision),
                     Table::num(acc.recall)});
    }
  }
  curve.print(std::cout);
  return 0;
}

}  // namespace
}  // namespace flock

int main() { return flock::run(); }
