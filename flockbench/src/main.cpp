// flockbench: the repository's benchmark driver.
//
//   flockbench --workload <stream_steady|repro_calibrate>
//              --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (and
// writes the spans). Info lines come first; the last stdout line is the
// result JSON. A failed correctness check prints correct=false and exits 1.
#include <sys/stat.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/simd.h"
#include "config.h"
#include "offline.h"
#include "stream.h"
#include "tracer.h"
#include "util.h"

namespace {

using namespace flockbench;

const std::vector<std::string> kEndToEnd = {"setup_s", "records_per_s", "epoch_p50_ms"};

const std::vector<std::string> kPerLayer = {
    "telemetry.encode_ns_per_record", "net.capture_MB_per_s",
    "net.replay_MB_per_s",            "topology.router_warm_s",
    "flowsim.simulate_s",             "pipeline.offer_us_per_dgram",
    "pipeline.close_to_verdict_ms",   "pipeline.overhead_ms",
    "telemetry.decode_ns_per_record", "telemetry.join_ns_per_record",
    "core.dedup_ratio",               "core.engine_build_ms",
    "core.localize_ms",               "core.hypotheses_per_s",
    "pipeline.sink_add_us",           "pipeline.tracker_observe_us",
    "flowsim.make_view_ms",           "baselines.netbouncer_localize_ms",
    "baselines.zero07_localize_ms",   "calibration.flock_s",
    "calibration.netbouncer_s",       "calibration.zero07_s",
    "eval.run_scheme_ms",             "trace.overhead_s"};

int usage(const char* why) {
  std::cerr << "flockbench: " << why
            << "\nusage: flockbench --workload <stream_steady|repro_calibrate> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start_ns = now_ns();
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") workload = value;
      else if (arg == "--seed") seed = std::stoull(value);
      else if (arg == "--seconds") seconds = std::stod(value);
      else if (arg == "--trace") trace = std::stoi(value) != 0;
      else if (arg == "--out") out_dir = value;
      else return usage(("unknown argument " + arg).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (seconds <= 0.0) return usage("--seconds must be positive");
  // Intra-epoch team sizes are set explicitly; the environment lever must
  // not reach the calibration harness's localizers either.
  unsetenv("FLOCK_LOCALIZE_THREADS");

  Tracer tracer(trace);
  WorkloadResult r;
  try {
    if (workload == "stream_steady") {
      r = run_stream(seed, seconds, trace, start_ns, tracer);
    } else if (workload == "repro_calibrate") {
      r = run_repro(seed, seconds, trace, start_ns, tracer);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    r.correct = false;
    r.error = std::string("exception: ") + e.what();
  }
  for (const std::string& name : trace ? kPerLayer : kEndToEnd) {
    if (r.correct && r.metrics.count(name) == 0) {
      r.correct = false;
      r.error = "metric " + name + " was not measured";
    }
  }

  std::cout << "workload: " << workload << ", seed " << seed << ", seconds " << seconds
            << ", trace " << trace << "\n";
  std::cout << "simd_level: " << flock::simd::level_name(flock::simd::active_level()) << "\n";
  std::cout << "threads: producer + dispatcher + " << kShards << " shard worker + "
            << kLocalizerThreads << " localizer thread (team of " << kLocalizeThreads << ")\n";
  for (const std::string& line : r.info) std::cout << line << "\n";
  if (!r.correct) {
    std::cout << "CHECK FAILED: " << r.error << "\n";
    std::cerr << "flockbench: check failed: " << r.error << "\n";
  }
  const std::string result = result_json(r.correct, r.attempted, r.failed, r.metrics);
  ::mkdir(out_dir.c_str(), 0755);
  const std::string stem =
      out_dir + "/" + workload + "-seed" + std::to_string(seed) + (trace ? "-traced" : "");
  std::ofstream(stem + ".json") << result << "\n";
  if (trace && !tracer.write(stem + "-spans.json")) {
    std::cerr << "flockbench: could not write " << stem << "-spans.json\n";
  }
  std::cout << result << std::endl;
  return r.correct ? 0 : 1;
}
