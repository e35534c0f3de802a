// Everything that shapes a workload: fabrics, traffic sizes, fault
// schedules, model parameters, grids and thread counts. These live here, and
// only here, so that no edit elsewhere in the repository can change what the
// benchmark measures. The run's --seed enters every random draw through
// seed_for(); the same seed gives the same inputs.
#pragma once

#include <cstdint>

#include "calibration/grid.h"
#include "core/params.h"
#include "flowsim/scenario.h"
#include "topology/topology.h"

namespace flockbench {

inline std::uint64_t seed_for(std::uint64_t run_seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): distinct, well-mixed seeds per purpose.
  std::uint64_t z = run_seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The 6-pod three-tier Clos of the reproduction harness: 54 hosts, 162 links.
inline flock::ThreeTierClosConfig default_clos() {
  flock::ThreeTierClosConfig cfg;
  cfg.pods = 6;
  cfg.tors_per_pod = 3;
  cfg.aggs_per_pod = 3;
  cfg.cores = 9;
  cfg.hosts_per_tor = 3;
  return cfg;
}

inline flock::FlockParams service_params() {
  flock::FlockParams p;
  p.p_g = 1e-4;
  p.p_b = 6e-3;
  p.rho = 1e-3;
  return p;
}

inline flock::DropRateConfig fault_rates() {
  flock::DropRateConfig rates;
  rates.bad_min = 4e-3;
  rates.bad_max = 1e-2;
  return rates;
}

// stream_steady: the §5 service on the largest Fig 4d fabric (fat-tree k=12:
// 432 hosts, 1296 links), fed interval by interval. Each pool interval is the
// A1 probe mesh plus passive application records (paths stripped), with the
// same two persistent faulty links; the pool is offered cyclically.
constexpr std::int32_t kFatTreeK = 12;
constexpr std::int32_t kPoolSize = 16;       // distinct simulated intervals
constexpr std::int64_t kAppFlows = 30000;    // application flows per interval
constexpr std::int32_t kFaultyLinks = 2;
// A round is one pass over the pool with one interval in flight, then
// kAheadPasses passes with the producer running ahead. At least kMinRounds
// rounds run (80 one-in-flight intervals), however slow the machine.
constexpr std::int32_t kAheadPasses = 2;
constexpr std::int32_t kMinRounds = 5;

// repro_calibrate: §5.2 calibration on a training environment, evaluation of
// each chosen point on a test environment, all on the default Clos. Cycle c
// evaluates on test environment c mod kTestEnvs. Simulating them all makes a
// set-up of 0.5-1 s, which holds steadier between runs than the 0.1 s of one.
constexpr std::int32_t kTrainTraces = 4;
constexpr std::int32_t kTestEnvs = 8;
constexpr std::int32_t kTestTraces = 48;  // per test environment
constexpr std::int64_t kReproAppFlows = 8000;  // application flows per trace
constexpr std::int32_t kMinFailures = 1;       // silent link drops per trace
constexpr std::int32_t kMaxFailures = 4;

inline flock::ParamGrid flock_grid() {
  flock::ParamGrid grid;
  grid.names = {"p_g", "p_b", "rho"};
  grid.values = {{1e-4, 7e-4, 2e-3}, {2e-3, 6e-3, 2e-2, 6e-2, 2e-1}, {1e-4, 1e-3}};
  return grid;
}

inline flock::ParamGrid netbouncer_grid() {
  flock::ParamGrid grid;
  grid.names = {"lambda", "drop_threshold", "device_link_fraction"};
  grid.values = {{4.0}, {1e-3, 2e-3, 5e-3}, {0.6}};
  return grid;
}

inline flock::ParamGrid zero07_grid() {
  flock::ParamGrid grid;
  grid.names = {"score_threshold"};
  grid.values = {{0.3, 0.5, 0.7, 0.9}};
  return grid;
}

// Grids of the traced run's offline-layer pass on stream_steady: one
// call of each calibration on two intervals, not a search.
inline flock::ParamGrid tiny_flock_grid() {
  flock::ParamGrid grid;
  grid.names = {"p_g", "p_b", "rho"};
  grid.values = {{1e-4}, {6e-3, 2e-2}, {1e-3}};
  return grid;
}

inline flock::ParamGrid tiny_netbouncer_grid() {
  flock::ParamGrid grid;
  grid.names = {"lambda", "drop_threshold", "device_link_fraction"};
  grid.values = {{4.0}, {2e-3, 5e-3}, {0.6}};
  return grid;
}

inline flock::ParamGrid tiny_zero07_grid() {
  flock::ParamGrid grid;
  grid.names = {"score_threshold"};
  grid.values = {{0.5, 0.8}};
  return grid;
}

// Threads: the producer (main thread), the dispatcher, one shard worker and
// one localizer thread with a one-thread team — four busy threads at most,
// the machine's four cores. localize_threads is set, never left to the
// FLOCK_LOCALIZE_THREADS environment variable.
constexpr std::int32_t kShards = 1;
constexpr std::size_t kLocalizerThreads = 1;
constexpr std::int32_t kLocalizeThreads = 1;

}  // namespace flockbench
