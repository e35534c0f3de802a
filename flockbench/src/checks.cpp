#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "topology/ecmp.h"

namespace flockbench {

using flock::ComponentId;

double flow_term(std::int64_t bad, std::int64_t width, double s) {
  if (bad <= 0) return 0.0;
  if (bad >= width) return s;
  const double b = static_cast<double>(bad);
  const double w = static_cast<double>(width);
  if (s > 0.0) return s + std::log(b / w) + std::log1p((w - b) / b * std::exp(-s));
  return std::log(b * std::exp(s) + (w - b)) - std::log(w);
}

PosteriorModel::PosteriorModel(const flock::InferenceInput& input,
                               const flock::FlockParams& params)
    : input_(&input), params_(params), n_comps_(input.topology().num_components()) {
  const double log_bad = std::log(params.p_b / params.p_g);
  const double log_good = std::log((1.0 - params.p_b) / (1.0 - params.p_g));
  for (const flock::FlowObservation& o : input.expanded_flows()) {
    const double r = o.bad_packets;
    const double t = o.packets_sent;
    obs_.push_back({o.src_link, o.dst_link, o.path_set, o.taken_path,
                    r * log_bad + (t - r) * log_good});
  }
}

double PosteriorModel::log_likelihood(const std::vector<ComponentId>& hypothesis) const {
  const flock::EcmpRouter& router = input_->router();
  std::vector<char> failed(static_cast<std::size_t>(n_comps_), 0);
  for (ComponentId c : hypothesis) failed.at(static_cast<std::size_t>(c)) = 1;
  const auto is_failed = [&](ComponentId c) {
    return c != flock::kInvalidComponent && failed[static_cast<std::size_t>(c)] != 0;
  };
  const auto path_bad = [&](flock::PathId pid) {
    const auto& comps = router.path(pid).comps;
    return std::any_of(comps.begin(), comps.end(), is_failed);
  };
  // Bad-path count per path set under this hypothesis, filled on first use.
  std::vector<std::int32_t> bad_paths(static_cast<std::size_t>(router.num_path_sets()), -1);
  long double total = 0.0L;
  for (const Obs& o : obs_) {
    const flock::PathSet& ps = router.path_set(o.path_set);
    const bool endpoint_failed = is_failed(o.src_link) || is_failed(o.dst_link);
    std::int64_t width = 1;
    std::int64_t bad = 0;
    if (o.taken_path >= 0) {
      bad = endpoint_failed || path_bad(ps.paths.at(static_cast<std::size_t>(o.taken_path)))
                ? 1
                : 0;
    } else {
      width = static_cast<std::int64_t>(ps.paths.size());
      if (endpoint_failed) {
        bad = width;
      } else {
        std::int32_t& cached = bad_paths.at(static_cast<std::size_t>(o.path_set));
        if (cached < 0) {
          cached = static_cast<std::int32_t>(
              std::count_if(ps.paths.begin(), ps.paths.end(), path_bad));
        }
        bad = cached;
      }
    }
    total += flow_term(bad, width, o.s);
  }
  return static_cast<double>(total);
}

double PosteriorModel::log_prior(const std::vector<ComponentId>& hypothesis) const {
  const flock::Topology& topo = input_->topology();
  double total = 0.0;
  for (ComponentId c : hypothesis) {
    const double base = std::log(params_.rho / (1.0 - params_.rho));
    total += topo.is_device_component(c) ? base * params_.device_prior_scale : base;
  }
  return total;
}

std::string check_localization(const PosteriorModel& model,
                               const std::vector<ComponentId>& predicted,
                               double reported_score,
                               const std::vector<ComponentId>& candidates) {
  const double posterior = model.log_posterior(predicted);
  const double tol = 1e-8 * std::max(1.0, std::abs(posterior));
  std::ostringstream os;
  os.precision(12);
  if (!(std::abs(posterior - reported_score) <= tol)) {
    os << "posterior mismatch: recomputed " << posterior << " (likelihood "
       << model.log_likelihood(predicted) << "), localizer reported " << reported_score;
    return os.str();
  }
  for (ComponentId c : candidates) {
    if (std::find(predicted.begin(), predicted.end(), c) != predicted.end()) continue;
    std::vector<ComponentId> grown = predicted;
    grown.push_back(c);
    const double gain = model.log_posterior(grown) - posterior;
    if (gain > tol) {
      os << "stopping rule broken: adding component " << c << " raises the posterior by "
         << gain;
      return os.str();
    }
  }
  return {};
}

std::string check_conservation(std::uint64_t records_encoded, std::uint64_t intervals_offered,
                               const flock::PipelineStats& stats,
                               const std::vector<flock::EpochResult>& epochs) {
  std::uint64_t flows = 0;
  std::uint64_t unresolved = 0;
  for (const flock::EpochResult& e : epochs) {
    flows += e.flows;
    unresolved += e.unresolved;
  }
  std::ostringstream os;
  if (stats.records_decoded != records_encoded) {
    os << "records decoded " << stats.records_decoded << " != encoded " << records_encoded;
  } else if (flows + unresolved != records_encoded) {
    os << "merged flows " << flows << " + unresolved " << unresolved << " != encoded "
       << records_encoded;
  } else if (stats.dropped != 0 || stats.rejected_closed != 0 || stats.malformed_messages != 0) {
    os << "lost datagrams: dropped " << stats.dropped << ", rejected " << stats.rejected_closed
       << ", malformed " << stats.malformed_messages;
  } else if (epochs.size() != intervals_offered) {
    os << "intervals merged " << epochs.size() << " != offered " << intervals_offered;
  }
  return os.str();
}

double SetAccuracy::fscore() const {
  return precision + recall > 0.0 ? 2.0 * precision * recall / (precision + recall) : 0.0;
}

SetAccuracy set_accuracy(const std::vector<ComponentId>& truth,
                         const std::vector<ComponentId>& predicted) {
  std::vector<ComponentId> t = truth;
  std::vector<ComponentId> p = predicted;
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  std::sort(p.begin(), p.end());
  p.erase(std::unique(p.begin(), p.end()), p.end());
  std::vector<ComponentId> hit;
  std::set_intersection(t.begin(), t.end(), p.begin(), p.end(), std::back_inserter(hit));
  SetAccuracy acc;
  if (!p.empty()) acc.precision = static_cast<double>(hit.size()) / static_cast<double>(p.size());
  if (!t.empty()) acc.recall = static_cast<double>(hit.size()) / static_cast<double>(t.size());
  return acc;
}

std::string check_selection(const flock::CalibrationOutcome& outcome) {
  const auto& points = outcome.evaluated;
  const flock::CalibrationPoint& chosen = outcome.chosen;
  if (points.empty()) return "no evaluated points";
  const auto same = [](const flock::CalibrationPoint& a, const flock::CalibrationPoint& b) {
    return a.params == b.params && a.accuracy.precision == b.accuracy.precision &&
           a.accuracy.recall == b.accuracy.recall;
  };
  if (std::none_of(points.begin(), points.end(),
                   [&](const auto& p) { return same(p, chosen); })) {
    return "chosen point is not among the evaluated points";
  }
  // Floors as k steps below 0.98, so no floating drift decides a boundary.
  for (int k = 0; 0.98 - 0.05 * k > 0.0; ++k) {
    const double floor = 0.98 - 0.05 * k;
    double best_recall = -1.0;
    for (const auto& p : points) {
      if (p.accuracy.precision >= floor) best_recall = std::max(best_recall, p.accuracy.recall);
    }
    if (best_recall >= 0.25) {
      if (chosen.accuracy.precision >= floor && chosen.accuracy.recall == best_recall) return {};
      std::ostringstream os;
      os << "chosen point (p=" << chosen.accuracy.precision << ", r=" << chosen.accuracy.recall
         << ") is not the best recall " << best_recall << " at precision floor " << floor;
      return os.str();
    }
  }
  double best_recall = -1.0;
  for (const auto& p : points) best_recall = std::max(best_recall, p.accuracy.recall);
  if (chosen.accuracy.recall == best_recall) return {};
  return "chosen point is not the highest-recall fallback";
}

}  // namespace flockbench
