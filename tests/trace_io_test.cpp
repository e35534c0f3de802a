// Tests for the trace serialization format.
#include "eval/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "flowsim/scenario.h"

namespace flock {
namespace {

struct Fixture {
  Topology topo = make_fat_tree(4);
  EcmpRouter router{topo};
  Trace trace;

  explicit Fixture(std::uint64_t seed = 81, bool device_failure = false) {
    Rng rng(seed);
    GroundTruth truth = device_failure
                            ? make_device_failures(topo, 1, 0.5, DropRateConfig{}, rng)
                            : make_silent_link_drops(topo, 2, DropRateConfig{}, rng);
    TrafficConfig traffic;
    traffic.num_app_flows = 500;
    trace = simulate(topo, router, std::move(truth), traffic, ProbeConfig{}, rng);
  }
};

void expect_traces_equal(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.truth.failed, b.truth.failed);
  EXPECT_EQ(a.truth.link_drop_rate, b.truth.link_drop_rate);
  EXPECT_EQ(a.truth.device_failed_links.size(), b.truth.device_failed_links.size());
  for (const auto& [dev, links] : a.truth.device_failed_links) {
    auto it = b.truth.device_failed_links.find(dev);
    ASSERT_NE(it, b.truth.device_failed_links.end());
    EXPECT_EQ(links, it->second);
  }
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].kind, b.flows[i].kind);
    EXPECT_EQ(a.flows[i].src_host, b.flows[i].src_host);
    EXPECT_EQ(a.flows[i].dst_host, b.flows[i].dst_host);
    EXPECT_EQ(a.flows[i].path_set, b.flows[i].path_set);
    EXPECT_EQ(a.flows[i].taken_path, b.flows[i].taken_path);
    EXPECT_EQ(a.flows[i].packets_sent, b.flows[i].packets_sent);
    EXPECT_EQ(a.flows[i].dropped, b.flows[i].dropped);
    EXPECT_FLOAT_EQ(a.flows[i].rtt_ms, b.flows[i].rtt_ms);
  }
}

TEST(TraceIo, RoundTrip) {
  Fixture fx;
  std::stringstream buffer;
  write_trace(buffer, fx.trace, fx.topo, fx.router);
  const Trace loaded = read_trace(buffer, fx.topo, fx.router);
  expect_traces_equal(fx.trace, loaded);
}

TEST(TraceIo, RoundTripDeviceFailure) {
  Fixture fx(82, /*device_failure=*/true);
  std::stringstream buffer;
  write_trace(buffer, fx.trace, fx.topo, fx.router);
  const Trace loaded = read_trace(buffer, fx.topo, fx.router);
  expect_traces_equal(fx.trace, loaded);
}

TEST(TraceIo, RejectsBadMagic) {
  Fixture fx;
  std::stringstream buffer;
  buffer << "NOPE garbage";
  EXPECT_THROW(read_trace(buffer, fx.topo, fx.router), std::runtime_error);
}

TEST(TraceIo, RejectsTruncation) {
  Fixture fx;
  std::stringstream buffer;
  write_trace(buffer, fx.trace, fx.topo, fx.router);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(read_trace(truncated, fx.topo, fx.router), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownFlowKind) {
  Fixture fx;
  fx.trace.flows[0].kind = static_cast<SimFlowKind>(77);
  std::stringstream buffer;
  write_trace(buffer, fx.trace, fx.topo, fx.router);
  EXPECT_THROW(read_trace(buffer, fx.topo, fx.router), std::runtime_error);
}

TEST(TraceIo, RejectsOutOfRangeComponentIds) {
  // The inference engine and evaluate_accuracy index per-component tables by
  // these ids.
  Fixture link_fx;
  link_fx.trace.flows[0].src_link = link_fx.topo.num_links() + 100000;
  std::stringstream bad_link;
  write_trace(bad_link, link_fx.trace, link_fx.topo, link_fx.router);
  EXPECT_THROW(read_trace(bad_link, link_fx.topo, link_fx.router), std::runtime_error);

  Fixture truth_fx;
  truth_fx.trace.truth.failed[0] = truth_fx.topo.num_components();
  std::stringstream bad_truth;
  write_trace(bad_truth, truth_fx.trace, truth_fx.topo, truth_fx.router);
  EXPECT_THROW(read_trace(bad_truth, truth_fx.topo, truth_fx.router), std::runtime_error);
}

TEST(TraceIo, CorruptFlowCountIsATruncationNotAnAllocation) {
  // The u64 flow count sits right before the fixed-size flow records (44
  // bytes each). A count no file could hold must end in the documented
  // std::runtime_error, not in std::length_error or std::bad_alloc.
  Fixture fx;
  std::stringstream buffer;
  write_trace(buffer, fx.trace, fx.topo, fx.router);
  std::string bytes = buffer.str();
  const std::size_t count_at = bytes.size() - fx.trace.flows.size() * 44 - 8;
  for (const std::uint64_t count : {1ull << 32, 1ull << 60, ~0ull}) {
    for (int i = 0; i < 8; ++i) bytes[count_at + i] = static_cast<char>(count >> (8 * i));
    std::stringstream corrupt(bytes);
    EXPECT_THROW(read_trace(corrupt, fx.topo, fx.router), std::runtime_error) << count;
  }
}

TEST(TraceIo, RejectsTopologyMismatch) {
  Fixture fx;
  std::stringstream buffer;
  write_trace(buffer, fx.trace, fx.topo, fx.router);
  Topology other = make_fat_tree(6);
  EcmpRouter other_router(other);
  EXPECT_THROW(read_trace(buffer, other, other_router), std::runtime_error);
}

TEST(TraceIo, RejectsRouterWithMissingPathSets) {
  Fixture fx;
  std::stringstream buffer;
  write_trace(buffer, fx.trace, fx.topo, fx.router);
  EcmpRouter fresh(fx.topo);  // no path sets materialized yet
  EXPECT_THROW(read_trace(buffer, fx.topo, fresh), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  Fixture fx;
  const std::string path = "/tmp/flock_trace_io_test.bin";
  save_trace(path, fx.trace, fx.topo, fx.router);
  const Trace loaded = load_trace(path, fx.topo, fx.router);
  expect_traces_equal(fx.trace, loaded);
  EXPECT_THROW(load_trace("/nonexistent/path.bin", fx.topo, fx.router), std::runtime_error);
}

}  // namespace
}  // namespace flock
