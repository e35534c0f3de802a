#include "eval/trace_io.h"

#include <fstream>
#include <stdexcept>

#include "common/wire.h"

namespace flock {
namespace {

constexpr char kFormat[] = "trace_io";
constexpr wire::Magic kMagic = {'F', 'L', 'K', 'T'};
constexpr std::uint32_t kVersion = 1;

}  // namespace

void write_trace(std::ostream& os, const Trace& trace, const Topology& topo,
                 const EcmpRouter& router) {
  using wire::put;
  wire::put_header(os, kMagic, kVersion);
  put<std::uint32_t>(os, topo.num_links());
  put<std::uint32_t>(os, topo.num_devices());
  put<std::uint32_t>(os, router.num_path_sets());

  put<std::uint32_t>(os, trace.truth.failed.size());
  for (ComponentId c : trace.truth.failed) put<std::int32_t>(os, c);
  put<std::uint32_t>(os, trace.truth.device_failed_links.size());
  for (const auto& [dev, links] : trace.truth.device_failed_links) {
    put<std::int32_t>(os, dev);
    put<std::uint32_t>(os, links.size());
    for (ComponentId l : links) put<std::int32_t>(os, l);
  }
  put<std::uint32_t>(os, trace.truth.link_drop_rate.size());
  for (double r : trace.truth.link_drop_rate) put<double>(os, r);

  put<std::uint64_t>(os, trace.flows.size());
  for (const SimFlow& f : trace.flows) {
    put<std::uint32_t>(os, static_cast<std::uint32_t>(f.kind));
    put<std::int32_t>(os, f.src_host);
    put<std::int32_t>(os, f.dst_host);
    put<std::int32_t>(os, f.src_link);
    put<std::int32_t>(os, f.dst_link);
    put<std::int32_t>(os, f.path_set);
    put<std::int32_t>(os, f.taken_path);
    put<std::uint32_t>(os, f.packets_sent);
    put<std::uint32_t>(os, f.dropped);
    put<double>(os, f.rtt_ms);
  }
}

Trace read_trace(std::istream& is, const Topology& topo, const EcmpRouter& router) {
  wire::StreamReader in(is, kFormat);
  wire::get_header(in, kMagic, kVersion);
  if (in.get<std::uint32_t>() != static_cast<std::uint32_t>(topo.num_links()) ||
      in.get<std::uint32_t>() != static_cast<std::uint32_t>(topo.num_devices())) {
    in.fail("topology mismatch");
  }
  const auto want_path_sets = in.get<std::uint32_t>();
  if (want_path_sets > static_cast<std::uint32_t>(router.num_path_sets())) {
    in.fail("router has fewer path sets than the trace references; "
            "rebuild routes (e.g. build_all_tor_pairs) before loading");
  }

  // Counts are untrusted: containers grow as elements arrive, so a corrupt
  // count ends in a truncation error, not in an allocation.
  Trace trace;
  const auto n_failed = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_failed; ++i) {
    const auto c = in.get<std::int32_t>();
    if (c < 0 || c >= topo.num_components()) in.fail("ground truth names an unknown component");
    trace.truth.failed.push_back(c);
  }
  const auto n_dev = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_dev; ++i) {
    const auto dev = in.get<std::int32_t>();
    const auto n_links = in.get<std::uint32_t>();
    auto& links = trace.truth.device_failed_links[dev];
    for (std::uint32_t j = 0; j < n_links; ++j) links.push_back(in.get<std::int32_t>());
  }
  const auto n_rates = in.get<std::uint32_t>();
  if (n_rates != static_cast<std::uint32_t>(topo.num_links())) in.fail("drop-rate vector mismatch");
  trace.truth.link_drop_rate.resize(n_rates);
  for (auto& r : trace.truth.link_drop_rate) r = in.get<double>();

  const auto n_flows = in.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_flows; ++i) {
    SimFlow f;
    const auto kind = in.get<std::uint32_t>();
    if (kind > static_cast<std::uint32_t>(SimFlowKind::kApp)) in.fail("unknown flow kind");
    f.kind = static_cast<SimFlowKind>(kind);
    f.src_host = in.get<std::int32_t>();
    f.dst_host = in.get<std::int32_t>();
    f.src_link = in.get<std::int32_t>();
    f.dst_link = in.get<std::int32_t>();
    f.path_set = in.get<std::int32_t>();
    f.taken_path = in.get<std::int32_t>();
    f.packets_sent = in.get<std::uint32_t>();
    f.dropped = in.get<std::uint32_t>();
    f.rtt_ms = static_cast<float>(in.get<double>());
    if (f.path_set < 0 || f.path_set >= router.num_path_sets()) {
      in.fail("flow references unknown path set");
    }
    const auto width = static_cast<std::int32_t>(router.path_set(f.path_set).paths.size());
    const auto bad_link = [&topo](ComponentId c) {
      return c != kInvalidComponent && !topo.is_link_component(c);
    };
    if (f.taken_path < 0 || f.taken_path >= width || f.dropped > f.packets_sent ||
        bad_link(f.src_link) || bad_link(f.dst_link)) {
      in.fail("malformed flow record");
    }
    trace.flows.push_back(f);
  }
  return trace;
}

void save_trace(const std::string& path, const Trace& trace, const Topology& topo,
                const EcmpRouter& router) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("trace_io: cannot open " + path + " for writing");
  write_trace(os, trace, topo, router);
}

Trace load_trace(const std::string& path, const Topology& topo, const EcmpRouter& router) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("trace_io: cannot open " + path);
  return read_trace(is, topo, router);
}

}  // namespace flock
