// Each independent check of the benchmark must hold on the program's real
// output and fail once that output is corrupted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "calibration/grid.h"
#include "checks.h"
#include "common/rng.h"
#include "config.h"
#include "core/flock_localizer.h"
#include "flowsim/scenario.h"
#include "flowsim/simulate.h"
#include "flowsim/views.h"
#include "pipeline/pipeline.h"
#include "stream.h"

namespace flockbench {
namespace {

using flock::ComponentId;

struct SmallWorld {
  flock::Topology topo = flock::make_three_tier_clos(default_clos());
  flock::EcmpRouter router{topo};
  flock::Trace trace;

  SmallWorld() {
    flock::Rng rng(42);
    flock::DropRateConfig rates = fault_rates();
    flock::GroundTruth truth = flock::make_silent_link_drops(topo, 2, rates, rng);
    flock::TrafficConfig traffic;
    traffic.num_app_flows = 3000;
    trace = flock::simulate(topo, router, std::move(truth), traffic, flock::ProbeConfig{}, rng);
  }
};

TEST(Conservation, HoldsForTheFullIntervalAndBreaksOnAWithheldDatagram) {
  SmallWorld w;
  Tracer off(false);
  const Interval iv = encode_interval(w.topo, w.trace, 0, 1700000000u, off);
  ASSERT_GT(iv.datagrams.size(), 1u);
  w.router.build_all_tor_pairs();
  for (const bool withhold : {false, true}) {
    flock::StreamingPipeline pipeline(w.topo, w.router, service_config());
    const std::size_t n = iv.datagrams.size() - (withhold ? 1 : 0);
    for (std::size_t i = 0; i < n; ++i) ASSERT_TRUE(pipeline.offer_wait(iv.datagrams[i]));
    pipeline.close_epoch();
    pipeline.results().wait_for_epochs(1);
    pipeline.stop();
    const std::string err =
        check_conservation(iv.records, 1, pipeline.stats(), pipeline.results().completed());
    if (withhold) {
      EXPECT_NE(err, "");
    } else {
      EXPECT_EQ(err, "");
    }
  }
}

class LocalizationCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    flock::ViewOptions view;
    view.telemetry = flock::kTelemetryA1 | flock::kTelemetryP;
    input_ = std::make_unique<flock::InferenceInput>(
        flock::make_view(w_.topo, w_.router, w_.trace, view));
    flock::FlockOptions options;
    options.params = service_params();
    options.localize_threads = 1;
    result_ = flock::FlockLocalizer(options).localize(*input_);
    model_ = std::make_unique<PosteriorModel>(*input_, options.params);
    candidates_ = w_.trace.truth.failed;
    for (ComponentId c = 0; c < w_.topo.num_components(); c += 7) candidates_.push_back(c);
  }

  SmallWorld w_;
  std::unique_ptr<flock::InferenceInput> input_;
  flock::LocalizationResult result_;
  std::unique_ptr<PosteriorModel> model_;
  std::vector<ComponentId> candidates_;
};

TEST_F(LocalizationCheck, HoldsOnTheLocalizersOwnResult) {
  ASSERT_FALSE(result_.predicted.empty());
  EXPECT_EQ(check_localization(*model_, result_.predicted, result_.log_likelihood, candidates_),
            "");
}

TEST_F(LocalizationCheck, ReportedScoreIsThePosteriorNotTheLikelihood) {
  ASSERT_FALSE(result_.predicted.empty());
  const double likelihood = model_->log_likelihood(result_.predicted);
  const double posterior = model_->log_posterior(result_.predicted);
  EXPECT_GT(std::abs(result_.log_likelihood - likelihood), 1.0);
  EXPECT_LT(std::abs(result_.log_likelihood - posterior), 1e-6 * std::abs(posterior));
}

TEST_F(LocalizationCheck, PerturbedHypothesisBreaksThePosteriorRecomputation) {
  ASSERT_FALSE(result_.predicted.empty());
  std::vector<ComponentId> perturbed = result_.predicted;
  perturbed.pop_back();
  EXPECT_NE(check_localization(*model_, perturbed, result_.log_likelihood, candidates_), "");
  std::vector<ComponentId> grown = result_.predicted;
  grown.push_back(grown.front() == 0 ? 1 : 0);
  EXPECT_NE(check_localization(*model_, grown, result_.log_likelihood, candidates_), "");
}

TEST_F(LocalizationCheck, PerturbedHypothesisBreaksTheStoppingRule) {
  // Drop a detected true fault and report the shrunken hypothesis with its
  // own (consistent) posterior: only the stopping rule can catch it.
  const auto& truth = w_.trace.truth.failed;
  const auto found = std::find_first_of(result_.predicted.begin(), result_.predicted.end(),
                                        truth.begin(), truth.end());
  ASSERT_NE(found, result_.predicted.end());
  std::vector<ComponentId> perturbed = result_.predicted;
  perturbed.erase(perturbed.begin() + (found - result_.predicted.begin()));
  const std::string err =
      check_localization(*model_, perturbed, model_->log_posterior(perturbed), candidates_);
  EXPECT_NE(err.find("stopping rule"), std::string::npos) << err;
}

flock::CalibrationOutcome synthetic_outcome() {
  flock::ParamGrid grid;
  grid.names = {"x"};
  grid.values = {{0.0, 1.0, 2.0, 3.0, 4.0}};
  return flock::calibrate_grid(grid, [](const std::vector<double>& p) {
    flock::Accuracy a;
    a.precision = 1.0 - 0.1 * p[0];
    a.recall = 0.2 + 0.15 * p[0];
    return a;
  });
}

TEST(Selection, HoldsForTheChosenPointAndBreaksWhenSwapped) {
  flock::CalibrationOutcome outcome = synthetic_outcome();
  EXPECT_EQ(check_selection(outcome), "");
  for (const flock::CalibrationPoint& other : outcome.evaluated) {
    if (other.params == outcome.chosen.params) continue;
    flock::CalibrationOutcome swapped = outcome;
    swapped.chosen = other;
    EXPECT_NE(check_selection(swapped), "") << "params " << other.params[0];
  }
}

TEST(SetAccuracy, FollowsTheEmptySetConventions) {
  EXPECT_DOUBLE_EQ(set_accuracy({}, {}).fscore(), 1.0);
  EXPECT_DOUBLE_EQ(set_accuracy({}, {3}).fscore(), 0.0);
  EXPECT_DOUBLE_EQ(set_accuracy({3}, {}).fscore(), 0.0);
  const SetAccuracy half = set_accuracy({1, 2}, {2, 5});
  EXPECT_DOUBLE_EQ(half.precision, 0.5);
  EXPECT_DOUBLE_EQ(half.recall, 0.5);
}

TEST(FlowTerm, MatchesTheDirectFormula) {
  for (const double s : {-30.0, -1.0, 0.0, 0.5, 8.0}) {
    for (const std::int64_t b : {0, 1, 3, 4}) {
      const double direct = std::log((b * std::exp(s) + (4.0 - b)) / 4.0);
      EXPECT_NEAR(flow_term(b, 4, s), direct, 1e-12) << "b=" << b << " s=" << s;
    }
  }
  EXPECT_NEAR(flow_term(1, 4, 800.0), 800.0 + std::log(0.25), 1e-9);
}

}  // namespace
}  // namespace flockbench
