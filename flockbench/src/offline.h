// The offline reproduction harness: §5.2 calibration and evaluation
// (repro_calibrate), and the offline-layer pass of stream_steady's
// traced runs.
#pragma once

#include <cstdint>
#include <string>

#include "eval/runner.h"
#include "tracer.h"
#include "util.h"

namespace flockbench {

// Traced-run pass over the layers a stream workload does not call: views,
// the NetBouncer and 007 localizers, one small calibration of each scheme
// and one evaluation, on the first two intervals of `env`. Returns an error
// when a calibration's chosen point breaks the §5.2 rule.
std::string offline_layers(flock::ExperimentEnv& env, Tracer& tracer);

WorkloadResult run_repro(std::uint64_t seed, double seconds, bool trace, std::int64_t start_ns,
                         Tracer& tracer);

}  // namespace flockbench
