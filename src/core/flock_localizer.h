// Flock's inference: greedy MLE search (§3.3) over the PGM, accelerated by
// Joint Likelihood Exploration. Both accelerations can be disabled
// independently to reproduce the ablation of Fig 4c:
//   use_jle=true   — each iteration reads the maintained Delta array (O(n)
//                    scan) and flipping updates it in O(D·T).
//   use_jle=false  — each iteration evaluates every candidate neighbor from
//                    scratch in O(D·T) each, i.e. O(n·D·T) per iteration
//                    ("greedy only" in the paper's ablation).
#pragma once

#include <vector>

#include "core/inference_input.h"
#include "core/params.h"

namespace flock {

struct FlockOptions {
  FlockParams params;
  bool use_jle = true;
  // Safety cap on hypothesis size; the greedy loop virtually always stops on
  // its own (no positive-score addition) well before this.
  std::int32_t max_hypothesis_size = 64;
  // When > 0, expand the final hypothesis with "equivalent alternatives":
  // for every chosen component, any component that could replace it with a
  // posterior within this (absolute log-likelihood) tolerance is reported
  // too. Under symmetric ECMP, passive-only telemetry cannot distinguish
  // the members of a link equivalence class — reporting the whole class is
  // what lets Fig 5c say "narrowed down to 2-3 possibilities".
  double equivalence_epsilon = 0.0;
  // Intra-epoch worker-team size for one localize call (common/parallel_for.h).
  // 0 defers to FLOCK_LOCALIZE_THREADS (default 1 = serial). Thread count is
  // a pure performance lever: predictions and log posteriors are
  // byte-identical at 1, 2, or N threads — every parallelized sum keeps its
  // serial accumulation order.
  std::int32_t localize_threads = 0;
};

class FlockLocalizer final : public Localizer {
 public:
  explicit FlockLocalizer(FlockOptions options) : options_(options) {}

  LocalizationResult localize(const InferenceInput& input) const override;

  // Localize with cross-epoch evidence carryover: `prior_logodds[c]` >= 0
  // shrinks component c's prior cost (see LikelihoodEngine). An empty vector
  // — and the temporal tracker's default prior weight of 0, which exports
  // all zeros — leaves the result byte-identical to localize(input).
  LocalizationResult localize(const InferenceInput& input,
                              const std::vector<double>& prior_logodds) const;

  const char* name() const override { return options_.use_jle ? "Flock" : "Flock(no-JLE)"; }

  const FlockOptions& options() const { return options_; }
  FlockOptions& options() { return options_; }

 private:
  LocalizationResult localize_impl(const InferenceInput& input,
                                   const std::vector<double>* prior_logodds) const;

  FlockOptions options_;
};

}  // namespace flock
