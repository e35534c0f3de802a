// Byte-mutation fuzz over the three binary file formats: datagram log v2
// (net/dgram_log), trace (eval/trace_io) and tracker snapshot
// (pipeline/temporal_tracker), all encoded through common/wire.h.
//
// The sweeps follow ipfix_robustness_test: every single-byte mutation and
// every truncation of a valid file must either load or throw
// std::runtime_error. Any other exception or a crash fails: a corrupt count
// that turned into an allocation request would surface as std::bad_alloc or
// std::length_error. The sanitizer CI legs run this file under ASan+UBSan.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/rng.h"
#include "eval/trace_io.h"
#include "flowsim/scenario.h"
#include "flowsim/simulate.h"
#include "net/dgram_log.h"
#include "pipeline/temporal_tracker.h"

namespace flock {
namespace {

struct Files {
  Topology topo = make_fat_tree(4);
  EcmpRouter router{topo};
  TemporalTrackerConfig tracker_config;
  std::vector<std::vector<ComponentId>> classes = {{3, 11}, {6}};
  std::string dgram_log, trace, snapshot;

  Files() {
    Rng rng(81);
    GroundTruth truth = make_device_failures(topo, 1, 0.5, DropRateConfig{}, rng);
    TrafficConfig traffic;
    traffic.num_app_flows = 16;
    const Trace t = simulate(topo, router, std::move(truth), traffic, ProbeConfig{}, rng);
    std::ostringstream trace_os;
    write_trace(trace_os, t, topo, router);
    trace = trace_os.str();

    std::ostringstream log_os;
    DgramLogWriter writer(log_os, router_fingerprint(router));
    writer.append({11, 22, 33, {1, 2, 3}});
    writer.append({12, 22, 33, {}});
    writer.append({13, 23, 0, std::vector<std::uint8_t>(40, 0xAB)});
    dgram_log = log_os.str();

    tracker_config.window = 8;
    tracker_config.prior_weight = 1.0;
    tracker_config.age_half_life_epochs = 4.0;
    TemporalTracker tracker(tracker_config);
    tracker.set_equivalence_classes(classes);
    for (std::uint64_t e = 0; e < 10; ++e) {
      EpochResult epoch;
      epoch.epoch = e;
      if (e >= 4) epoch.predicted.push_back(1);
      if (e % 2 == 0) epoch.predicted.push_back(2);
      if (e >= 7) epoch.predicted.push_back(11);
      tracker.observe(epoch);
    }
    EpochResult late;
    late.epoch = 11;  // out of order: stays pending
    late.predicted = {1, 5};
    tracker.observe(late);
    std::ostringstream snap_os;
    tracker.save(snap_os);
    snapshot = snap_os.str();
  }

  void load_dgram_log(std::istream& is) const {
    DgramLogReader reader(is);
    LoggedDatagram d;
    while (reader.next(d)) {
    }
  }
  void load_trace(std::istream& is) const { (void)read_trace(is, topo, router); }
  void load_snapshot(std::istream& is) const {
    TemporalTracker tracker(tracker_config);
    tracker.set_equivalence_classes(classes);
    tracker.load(is);
  }
};

enum class Outcome { kLoaded, kRejected, kWrongFailure };

// Anything but success or std::runtime_error breaks the reader's contract.
template <typename Load>
Outcome try_load(const std::string& bytes, const Load& load, const std::string& what) {
  std::istringstream is(bytes);
  try {
    load(is);
    return Outcome::kLoaded;
  } catch (const std::runtime_error&) {
    return Outcome::kRejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << typeid(e).name() << " (" << e.what() << ")";
  } catch (...) {
    ADD_FAILURE() << what << ": non-standard exception";
  }
  return Outcome::kWrongFailure;
}

// Every single-byte mutation (a fixed set of replacement values at every
// offset) and every truncation. Stops at the first contract violation so a
// broken reader reports one line, not thousands.
template <typename Load>
void sweep(const std::string& valid, const Load& load) {
  ASSERT_EQ(try_load(valid, load, "valid file"), Outcome::kLoaded);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (const unsigned char value : {0x00, 0x01, 0x7F, 0x80, 0xFF}) {
      std::string mutated = valid;
      mutated[i] = static_cast<char>(value);
      const Outcome outcome = try_load(mutated, load,
                                       "byte " + std::to_string(i) + " := " +
                                           std::to_string(value));
      ASSERT_NE(outcome, Outcome::kWrongFailure);
      rejected += outcome == Outcome::kRejected;
    }
  }
  for (std::size_t len = 0; len < valid.size(); ++len) {
    // A datagram log cut at a record boundary is a shorter valid log.
    ASSERT_NE(try_load(valid.substr(0, len), load, "prefix " + std::to_string(len)),
              Outcome::kWrongFailure);
  }
  EXPECT_GT(rejected, 0u);  // the sweep does reach the rejection paths
}

TEST(FileFormatFuzz, DgramLogSurvivesEveryMutationAndTruncation) {
  const Files files;
  sweep(files.dgram_log, [&](std::istream& is) { files.load_dgram_log(is); });
}

TEST(FileFormatFuzz, TraceSurvivesEveryMutationAndTruncation) {
  const Files files;
  sweep(files.trace, [&](std::istream& is) { files.load_trace(is); });
}

TEST(FileFormatFuzz, TrackerSnapshotSurvivesEveryMutationAndTruncation) {
  const Files files;
  sweep(files.snapshot, [&](std::istream& is) { files.load_snapshot(is); });
}

// Traces and tracker snapshots share the "FLKT" v1 header; only their later
// fields tell them apart, and each reader must still refuse the other.
TEST(FileFormatFuzz, EachReaderRejectsTheOtherFormats) {
  const Files files;
  const auto dgram = [&](std::istream& is) { files.load_dgram_log(is); };
  const auto trace = [&](std::istream& is) { files.load_trace(is); };
  const auto snapshot = [&](std::istream& is) { files.load_snapshot(is); };
  EXPECT_EQ(try_load(files.trace, dgram, "trace as dgram log"), Outcome::kRejected);
  EXPECT_EQ(try_load(files.snapshot, dgram, "snapshot as dgram log"), Outcome::kRejected);
  EXPECT_EQ(try_load(files.dgram_log, trace, "dgram log as trace"), Outcome::kRejected);
  EXPECT_EQ(try_load(files.snapshot, trace, "snapshot as trace"), Outcome::kRejected);
  EXPECT_EQ(try_load(files.dgram_log, snapshot, "dgram log as snapshot"), Outcome::kRejected);
  EXPECT_EQ(try_load(files.trace, snapshot, "trace as snapshot"), Outcome::kRejected);
}

}  // namespace
}  // namespace flock
