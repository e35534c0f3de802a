// The benchmark's independent checks. Each recomputes a program output by a
// route that shares no code with the program beyond its public data types,
// and reports a mismatch as a string (empty = the check holds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "calibration/grid.h"
#include "core/inference_input.h"
#include "core/params.h"
#include "pipeline/pipeline.h"

namespace flockbench {

// Eq. 1 of the paper plus the §3.2 priors, evaluated straight from the
// expanded observations and the router's path sets:
//   log P(H) = Σ_flows log((b·e^s + w − b)/w) + Σ_{c∈H} prior(c)
// with s = r·log(p_b/p_g) + (t−r)·log((1−p_b)/(1−p_g)), w the flow's ECMP
// width (1 for a known path) and b the candidate paths H makes bad; a failed
// access link makes all w bad. prior(c) = log(rho/(1−rho)), scaled by
// device_prior_scale for devices.
class PosteriorModel {
 public:
  PosteriorModel(const flock::InferenceInput& input, const flock::FlockParams& params);

  std::int32_t num_components() const { return n_comps_; }
  double log_likelihood(const std::vector<flock::ComponentId>& hypothesis) const;
  double log_prior(const std::vector<flock::ComponentId>& hypothesis) const;
  double log_posterior(const std::vector<flock::ComponentId>& hypothesis) const {
    return log_likelihood(hypothesis) + log_prior(hypothesis);
  }

 private:
  struct Obs {
    flock::ComponentId src_link;
    flock::ComponentId dst_link;
    flock::PathSetId path_set;
    std::int32_t taken_path;
    double s;
  };
  const flock::InferenceInput* input_;
  flock::FlockParams params_;
  std::int32_t n_comps_ = 0;
  std::vector<Obs> obs_;
};

// Log of (b·e^s + w − b)/w, stable for any s.
double flow_term(std::int64_t bad, std::int64_t width, double s);

// The returned hypothesis's posterior must equal the localizer's reported
// score, and no single addition from `candidates` may raise it (the greedy
// stopping rule). Candidates inside the hypothesis are skipped.
std::string check_localization(const PosteriorModel& model,
                               const std::vector<flock::ComponentId>& predicted,
                               double reported_score,
                               const std::vector<flock::ComponentId>& candidates);

// Stream conservation from independent counts: records encoded (counted
// from the simulated flows) = records decoded = Σ flows + Σ unresolved, no
// drops, and every offered interval merged.
std::string check_conservation(std::uint64_t records_encoded, std::uint64_t intervals_offered,
                               const flock::PipelineStats& stats,
                               const std::vector<flock::EpochResult>& epochs);

// Precision and recall by set arithmetic (App A.1 conventions for link
// faults: an empty prediction has precision 1, an empty truth recall 1).
struct SetAccuracy {
  double precision = 1.0;
  double recall = 1.0;
  double fscore() const;
};
SetAccuracy set_accuracy(const std::vector<flock::ComponentId>& truth,
                         const std::vector<flock::ComponentId>& predicted);

// §5.2 operating point, recomputed from the evaluated grid: the highest
// precision floor (0.98, then down in steps of 0.05) at which the best
// recall reaches 0.25, and among the points above that floor the highest
// recall; without such a floor, the highest recall overall.
std::string check_selection(const flock::CalibrationOutcome& outcome);

}  // namespace flockbench
