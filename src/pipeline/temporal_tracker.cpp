#include "pipeline/temporal_tracker.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/wire.h"

namespace flock {

namespace {

std::uint64_t low_bits(std::uint32_t n) {
  return n >= 64 ? ~0ull : (1ull << n) - 1;
}

// Snapshot format (layout: see "snapshot persistence" below).
constexpr char kSnapshotFormat[] = "tracker snapshot";
constexpr wire::Magic kSnapshotMagic = {'F', 'L', 'K', 'T'};
constexpr std::uint32_t kSnapshotVersion = 1;
// Sanity bounds: a flipped bit in a count field must be a loud error, not an
// allocation request.
constexpr std::uint32_t kMaxSnapshotRows = 1u << 24;

}  // namespace

const char* to_string(ComponentHealth state) {
  switch (state) {
    case ComponentHealth::kHealthy: return "healthy";
    case ComponentHealth::kSuspect: return "suspect";
    case ComponentHealth::kConfirmed: return "confirmed";
    case ComponentHealth::kFlapping: return "flapping";
    case ComponentHealth::kCleared: return "cleared";
  }
  return "?";
}

TemporalTracker::TemporalTracker(TemporalTrackerConfig config) : config_(config) {
  config_.window = std::clamp<std::size_t>(config_.window, 2, 64);
  config_.confirm_epochs = std::max(config_.confirm_epochs, 1);
  config_.clear_epochs = std::max(config_.clear_epochs, 1);
  config_.flap_transitions = std::max(config_.flap_transitions, 2);
  config_.max_pending_epochs = std::max<std::size_t>(config_.max_pending_epochs, 1);
}

void TemporalTracker::set_equivalence_classes(
    const std::vector<std::vector<ComponentId>>& classes) {
  MutexLock lock(mutex_);
  if (stats_.epochs_observed > 0 || !tracked_.empty()) {
    throw std::logic_error(
        "TemporalTracker: equivalence classes must be set before any epoch is "
        "observed or restored");
  }
  class_of_.clear();
  class_members_.clear();
  class_hash_ = 0;
  std::uint64_t h = wire::kFnvSeed;
  for (const auto& cls : classes) {
    if (cls.size() < 2) continue;  // identity mapping; keying by own id is exact
    std::vector<ComponentId> members = cls;
    std::sort(members.begin(), members.end());
    const ComponentId canon = members.front();
    for (const ComponentId c : members) {
      class_of_[c] = canon;
      h = wire::fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(c)));
    }
    h = wire::fnv1a(h, static_cast<std::uint64_t>(members.size()));
    class_members_.emplace(canon, std::move(members));
  }
  if (!class_members_.empty()) class_hash_ = h;
}

ComponentId TemporalTracker::canonical(ComponentId c) const {
  const auto it = class_of_.find(c);
  return it == class_of_.end() ? c : it->second;
}

void TemporalTracker::observe(const EpochResult& epoch) {
  MutexLock lock(mutex_);
  // Rebase onto a restored snapshot's timeline: a restarted scheduler counts
  // epochs from 0 again, but the incident's history did not reset.
  const std::uint64_t id = epoch.epoch + epoch_base_;
  if (id < next_epoch_) return;  // duplicate or stale: already applied
  if (id != next_epoch_) {
    // A newer epoch merged before its predecessors (age-priority dispatch
    // makes this rare but not impossible): hold it until the gap fills.
    ++stats_.out_of_order_epochs;
    pending_.emplace(id, epoch.predicted);
    if (pending_.size() > config_.max_pending_epochs) {
      // The buffer is the bound, not the gap: declare the missing epochs
      // lost, skip to the earliest buffered one, and keep the books honest.
      const std::uint64_t resume = pending_.begin()->first;
      stats_.dropped_epochs += resume - next_epoch_;
      next_epoch_ = resume;
      drain_pending();
    }
    return;
  }
  apply(next_epoch_++, epoch.predicted);
  drain_pending();
}

void TemporalTracker::drain_pending() {
  while (!pending_.empty() && pending_.begin()->first == next_epoch_) {
    apply(next_epoch_++, pending_.begin()->second);
    pending_.erase(pending_.begin());
  }
}

void TemporalTracker::apply(std::uint64_t epoch, const std::vector<ComponentId>& blamed) {
  // Canonicalize through the class map (identity when unset), then sort and
  // dedup: two members of one ambiguity class blamed in the same epoch are
  // one blame for the class, not two.
  std::vector<ComponentId> sorted;
  sorted.reserve(blamed.size());
  for (const ComponentId c : blamed) sorted.push_back(canonical(c));
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (ComponentId c : sorted) tracked_.try_emplace(c);
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    Tracked& t = it->second;
    step(t, std::binary_search(sorted.begin(), sorted.end(), it->first), epoch);
    // Forget a component only once its whole window is quiet again, so a
    // re-blame inside the window still sees the earlier history.
    if (t.state == ComponentHealth::kHealthy && (t.history & low_bits(t.epochs_seen)) == 0) {
      it = tracked_.erase(it);
    } else {
      ++it;
    }
  }
  ++stats_.epochs_observed;
  stats_.tracked_components = tracked_.size();
}

void TemporalTracker::step(Tracked& t, bool blamed, std::uint64_t epoch) {
  t.history = (t.history << 1) | (blamed ? 1u : 0u);
  if (t.epochs_seen < config_.window) ++t.epochs_seen;
  if (blamed) {
    ++t.blame_streak;
    t.quiet_streak = 0;
    t.last_blamed_epoch = epoch;
  } else {
    ++t.quiet_streak;
    t.blame_streak = 0;
  }

  const auto confirm = [&] {
    t.state = ComponentHealth::kConfirmed;
    t.confirmed_epoch = epoch;
    ++t.confirmations;
    ++stats_.confirmations;
    if (!t.latency_recorded) {
      t.latency_recorded = true;
      t.epochs_to_confirm = epoch - t.first_blamed_epoch;
    }
  };
  const auto clear = [&] {
    t.state = ComponentHealth::kCleared;
    ++t.clears;
    ++stats_.clears;
  };

  if (blamed && t.state == ComponentHealth::kHealthy) {
    t.state = ComponentHealth::kSuspect;
    t.first_blamed_epoch = epoch;
    t.latency_recorded = false;
  } else if (blamed && t.state == ComponentHealth::kCleared) {
    // The clear did not hold: the fault (or its flap) is back.
    t.state = ComponentHealth::kSuspect;
    ++t.false_clears;
    ++stats_.false_clears;
  }

  // Hysteresis edges.
  if (t.state == ComponentHealth::kSuspect) {
    if (t.blame_streak >= config_.confirm_epochs) {
      confirm();
    } else if (t.quiet_streak >= config_.clear_epochs) {
      t.state = ComponentHealth::kHealthy;  // unconfirmed suspicion expires; not a clear
    }
  } else if (t.state == ComponentHealth::kConfirmed &&
             t.quiet_streak >= config_.clear_epochs) {
    clear();
  }

  // Flap overlay: enough blame on/off edges inside the window override the
  // confirm/clear churn; the state is sticky until the window settles into a
  // persistent fault (re-confirm) or persistent quiet (clear).
  const std::int32_t edges = transitions(t);
  if (t.state == ComponentHealth::kFlapping) {
    if (edges < config_.flap_transitions) {
      if (t.blame_streak >= config_.confirm_epochs) {
        confirm();
      } else if (t.quiet_streak >= config_.clear_epochs) {
        clear();
      }
    }
  } else if (t.state != ComponentHealth::kHealthy && edges >= config_.flap_transitions) {
    t.state = ComponentHealth::kFlapping;
    ++stats_.flaps_detected;
  }

  // A cleared component whose window has fully drained is healthy again
  // (and gets forgotten by apply()); until then it stays visibly "cleared"
  // so a re-blame is recognized as a false clear, not a fresh fault.
  if (t.state == ComponentHealth::kCleared &&
      (t.history & low_bits(t.epochs_seen)) == 0) {
    t.state = ComponentHealth::kHealthy;
  }
}

std::int32_t TemporalTracker::transitions(const Tracked& t) const {
  if (t.epochs_seen < 2) return 0;
  // Edges between consecutive valid bits: k epochs have k-1 adjacent pairs.
  const std::uint64_t edges = (t.history ^ (t.history >> 1)) & low_bits(t.epochs_seen - 1);
  return static_cast<std::int32_t>(std::popcount(edges));
}

double TemporalTracker::duty_cycle(const Tracked& t) const {
  // Normalized by the full window length, not epochs tracked: a component
  // blamed once must start near 0, not at 1.0, or a fresh suspect would
  // carry as much prior as a long-confirmed fault.
  return static_cast<double>(
             std::popcount(t.history & low_bits(static_cast<std::uint32_t>(config_.window)))) /
         static_cast<double>(config_.window);
}

double TemporalTracker::age_factor(const Tracked& t) const {
  if (config_.age_half_life_epochs <= 0.0 || next_epoch_ == 0) return 1.0;
  const std::uint64_t now = next_epoch_ - 1;  // most recently applied epoch
  if (t.last_blamed_epoch >= now) return 1.0;
  const double age = static_cast<double>(now - t.last_blamed_epoch);
  return std::exp2(-age / config_.age_half_life_epochs);
}

ComponentVerdict TemporalTracker::make_verdict(ComponentId c, const Tracked& t) const {
  ComponentVerdict v;
  v.component = c;
  v.state = t.state;
  const auto cls = class_members_.find(c);
  v.class_size = cls == class_members_.end() ? 1 : static_cast<std::int32_t>(cls->second.size());
  v.blame_streak = t.blame_streak;
  v.quiet_streak = t.quiet_streak;
  v.transitions_in_window = transitions(t);
  v.duty_cycle = duty_cycle(t);
  v.first_blamed_epoch = t.first_blamed_epoch;
  v.last_blamed_epoch = t.last_blamed_epoch;
  v.confirmed_epoch = t.confirmed_epoch;
  v.epochs_to_confirm = t.epochs_to_confirm;
  v.confirmations = t.confirmations;
  v.clears = t.clears;
  v.false_clears = t.false_clears;
  return v;
}

std::vector<ComponentVerdict> TemporalTracker::verdicts() const {
  MutexLock lock(mutex_);
  std::vector<ComponentVerdict> out;
  out.reserve(tracked_.size());
  for (const auto& [c, t] : tracked_) {
    if (t.state == ComponentHealth::kHealthy) continue;
    out.push_back(make_verdict(c, t));
  }
  return out;
}

ComponentVerdict TemporalTracker::verdict(ComponentId component) const {
  MutexLock lock(mutex_);
  const ComponentId canon = canonical(component);
  const auto it = tracked_.find(canon);
  if (it == tracked_.end()) {
    ComponentVerdict v;
    v.component = canon;
    const auto cls = class_members_.find(canon);
    if (cls != class_members_.end()) v.class_size = static_cast<std::int32_t>(cls->second.size());
    return v;
  }
  return make_verdict(canon, it->second);
}

std::vector<double> TemporalTracker::prior_logodds(std::size_t num_components) const {
  std::vector<double> out(num_components, 0.0);
  MutexLock lock(mutex_);
  if (config_.prior_weight <= 0.0) return out;
  const auto assign = [&](ComponentId c, double value) {
    if (static_cast<std::size_t>(c) < num_components) {
      out[static_cast<std::size_t>(c)] = value;
    }
  };
  for (const auto& [c, t] : tracked_) {
    double raw = 0.0;
    switch (t.state) {
      case ComponentHealth::kConfirmed:
      case ComponentHealth::kFlapping:
        raw = config_.prior_saturation;
        break;
      case ComponentHealth::kSuspect:
      case ComponentHealth::kCleared:
        // Partial carryover, decaying as blame ages out of the window.
        raw = config_.prior_saturation * duty_cycle(t);
        break;
      case ComponentHealth::kHealthy:
        break;
    }
    // Age decay: a component last blamed `age` epochs ago — confirmed,
    // flapping, or otherwise — must not carry as much prior as one blamed in
    // the most recent epoch. 2^(-age/half_life); half-life 0 = off.
    raw *= age_factor(t);
    const double value = config_.prior_weight * raw;
    // The state is per class; the export is per component, so every member
    // of a tracked class carries it — the sink's representative choice can
    // then never strand the carryover on the wrong member.
    const auto cls = class_members_.find(c);
    if (cls == class_members_.end()) {
      assign(c, value);
    } else {
      for (const ComponentId member : cls->second) assign(member, value);
    }
  }
  return out;
}

// --- snapshot persistence ----------------------------------------------------
//
// Layout (little-endian, encoded by common/wire.h):
//   magic "FLKT", u32 version
//   config echo: u64 window, i32 confirm, i32 clear, i32 flap_transitions,
//     f64 prior_weight, f64 prior_saturation, f64 age_half_life_epochs
//   class partition: u32 num_classes, u64 class_hash
//   u64 next_epoch
//   stats: u64 x {epochs_observed, out_of_order, dropped, confirmations,
//                 flaps, clears, false_clears}
//   u32 num_tracked rows, each:
//     i32 component, u64 history, u32 epochs_seen, u8 state, i32 blame_streak,
//     i32 quiet_streak, u8 latency_recorded, u64 first_blamed, u64 last_blamed,
//     u64 confirmed_epoch, u64 epochs_to_confirm, u64 confirmations,
//     u64 clears, u64 false_clears
//   u32 num_pending, each: u64 epoch, u32 count, i32 ids...
//   (no trailer: the counts delimit the snapshot; EOF mid-record is an error)

void TemporalTracker::save(std::ostream& os) const {
  MutexLock lock(mutex_);
  using wire::put;
  wire::put_header(os, kSnapshotMagic, kSnapshotVersion);
  put<std::uint64_t>(os, config_.window);
  put<std::int32_t>(os, config_.confirm_epochs);
  put<std::int32_t>(os, config_.clear_epochs);
  put<std::int32_t>(os, config_.flap_transitions);
  put<double>(os, config_.prior_weight);
  put<double>(os, config_.prior_saturation);
  put<double>(os, config_.age_half_life_epochs);
  put<std::uint32_t>(os, class_members_.size());
  put<std::uint64_t>(os, class_hash_);
  put<std::uint64_t>(os, next_epoch_);
  put<std::uint64_t>(os, stats_.epochs_observed);
  put<std::uint64_t>(os, stats_.out_of_order_epochs);
  put<std::uint64_t>(os, stats_.dropped_epochs);
  put<std::uint64_t>(os, stats_.confirmations);
  put<std::uint64_t>(os, stats_.flaps_detected);
  put<std::uint64_t>(os, stats_.clears);
  put<std::uint64_t>(os, stats_.false_clears);
  put<std::uint32_t>(os, tracked_.size());
  for (const auto& [c, t] : tracked_) {
    put<std::int32_t>(os, c);
    put<std::uint64_t>(os, t.history);
    put<std::uint32_t>(os, t.epochs_seen);
    put<std::uint8_t>(os, static_cast<std::uint8_t>(t.state));
    put<std::int32_t>(os, t.blame_streak);
    put<std::int32_t>(os, t.quiet_streak);
    put<std::uint8_t>(os, t.latency_recorded ? 1 : 0);
    put<std::uint64_t>(os, t.first_blamed_epoch);
    put<std::uint64_t>(os, t.last_blamed_epoch);
    put<std::uint64_t>(os, t.confirmed_epoch);
    put<std::uint64_t>(os, t.epochs_to_confirm);
    put<std::uint64_t>(os, t.confirmations);
    put<std::uint64_t>(os, t.clears);
    put<std::uint64_t>(os, t.false_clears);
  }
  put<std::uint32_t>(os, pending_.size());
  for (const auto& [epoch, blamed] : pending_) {
    put<std::uint64_t>(os, epoch);
    put<std::uint32_t>(os, blamed.size());
    for (const ComponentId c : blamed) put<std::int32_t>(os, c);
  }
}

void TemporalTracker::load(std::istream& is) {
  MutexLock lock(mutex_);
  if (stats_.epochs_observed > 0 || !tracked_.empty() || next_epoch_ != 0) {
    throw std::logic_error("TemporalTracker::load: tracker has already observed epochs");
  }
  wire::StreamReader in(is, kSnapshotFormat);
  wire::get_header(in, kSnapshotMagic, kSnapshotVersion);
  // Config compatibility: a snapshot taken under different state-machine or
  // carryover parameters would silently diverge from the uninterrupted run —
  // exactly the bug this restore path exists to rule out.
  const auto mismatch = [&in](const std::string& what) {
    in.fail("config mismatch (" + what + " differs from the running tracker)");
  };
  if (in.get<std::uint64_t>() != config_.window) mismatch("window");
  if (in.get<std::int32_t>() != config_.confirm_epochs) mismatch("confirm_epochs");
  if (in.get<std::int32_t>() != config_.clear_epochs) mismatch("clear_epochs");
  if (in.get<std::int32_t>() != config_.flap_transitions) mismatch("flap_transitions");
  if (in.get<double>() != config_.prior_weight) mismatch("prior_weight");
  if (in.get<double>() != config_.prior_saturation) mismatch("prior_saturation");
  if (in.get<double>() != config_.age_half_life_epochs) mismatch("age_half_life_epochs");
  if (in.get<std::uint32_t>() != static_cast<std::uint32_t>(class_members_.size())) {
    mismatch("equivalence class count");
  }
  if (in.get<std::uint64_t>() != class_hash_) mismatch("equivalence class partition");

  const auto next_epoch = in.get<std::uint64_t>();
  TemporalStats stats;
  stats.epochs_observed = in.get<std::uint64_t>();
  stats.out_of_order_epochs = in.get<std::uint64_t>();
  stats.dropped_epochs = in.get<std::uint64_t>();
  stats.confirmations = in.get<std::uint64_t>();
  stats.flaps_detected = in.get<std::uint64_t>();
  stats.clears = in.get<std::uint64_t>();
  stats.false_clears = in.get<std::uint64_t>();

  const auto num_tracked = in.get<std::uint32_t>();
  if (num_tracked > kMaxSnapshotRows) in.fail("corrupt tracked-row count");
  std::map<ComponentId, Tracked> tracked;
  for (std::uint32_t i = 0; i < num_tracked; ++i) {
    const ComponentId c = in.get<std::int32_t>();
    Tracked t;
    t.history = in.get<std::uint64_t>();
    t.epochs_seen = in.get<std::uint32_t>();
    const auto state = in.get<std::uint8_t>();
    if (t.epochs_seen > 64 || state > static_cast<std::uint8_t>(ComponentHealth::kCleared)) {
      in.fail("corrupt tracked row");
    }
    t.state = static_cast<ComponentHealth>(state);
    t.blame_streak = in.get<std::int32_t>();
    t.quiet_streak = in.get<std::int32_t>();
    t.latency_recorded = in.get<std::uint8_t>() != 0;
    t.first_blamed_epoch = in.get<std::uint64_t>();
    t.last_blamed_epoch = in.get<std::uint64_t>();
    t.confirmed_epoch = in.get<std::uint64_t>();
    t.epochs_to_confirm = in.get<std::uint64_t>();
    t.confirmations = in.get<std::uint64_t>();
    t.clears = in.get<std::uint64_t>();
    t.false_clears = in.get<std::uint64_t>();
    if (!tracked.emplace(c, t).second) in.fail("duplicate tracked component");
  }
  const auto num_pending = in.get<std::uint32_t>();
  if (num_pending > kMaxSnapshotRows) in.fail("corrupt pending-epoch count");
  std::map<std::uint64_t, std::vector<ComponentId>> pending;
  for (std::uint32_t i = 0; i < num_pending; ++i) {
    const auto epoch = in.get<std::uint64_t>();
    const auto count = in.get<std::uint32_t>();
    if (count > kMaxSnapshotRows) in.fail("corrupt pending blame count");
    std::vector<ComponentId> blamed;  // grows as ids arrive, not by the count
    for (std::uint32_t j = 0; j < count; ++j) blamed.push_back(in.get<std::int32_t>());
    pending.emplace(epoch, std::move(blamed));
  }

  // All fields validated; install the snapshot and continue its timeline.
  next_epoch_ = next_epoch;
  epoch_base_ = next_epoch;
  stats_ = stats;
  tracked_ = std::move(tracked);
  pending_ = std::move(pending);
  stats_.tracked_components = tracked_.size();
}

void TemporalTracker::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("tracker snapshot: cannot open " + path);
  save(static_cast<std::ostream&>(os));
  if (!os) throw std::runtime_error("tracker snapshot: write failed for " + path);
}

void TemporalTracker::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("tracker snapshot: cannot open " + path);
  load(static_cast<std::istream&>(is));
}

TemporalStats TemporalTracker::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace flock
