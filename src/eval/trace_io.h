// Binary serialization of simulated traces. The paper's open evaluation
// suite ships telemetry data for its fault scenarios; this module provides
// the same artifact capability: a trace (flows + ground truth) can be saved
// and re-analyzed without re-running the simulator, as long as the consumer
// rebuilds the identical topology/router (the file records the dimensions
// and validates them on load).
//
// Format (little-endian, versioned; encoded by common/wire.h):
//   magic "FLKT", u32 version,
//   u32 num_links, u32 num_devices, u32 num_path_sets   (validation header)
//   ground truth: u32 n_failed, failed ids; u32 n_dev entries of
//     (device id, u32 n_links, link ids); u32 n_rates, doubles
//   flows: u64 count, then per flow u32 kind, i32 src_host, dst_host,
//     src_link, dst_link, path_set, taken_path, u32 packets_sent, dropped,
//     f64 rtt_ms. Tracker snapshots share the "FLKT" v1 header; the fields
//     after it tell the two apart.
#pragma once

#include <iosfwd>
#include <string>

#include "flowsim/simulate.h"
#include "topology/ecmp.h"

namespace flock {

void write_trace(std::ostream& os, const Trace& trace, const Topology& topo,
                 const EcmpRouter& router);

// Throws std::runtime_error on malformed input (corrupt counts included) or
// a topology mismatch.
Trace read_trace(std::istream& is, const Topology& topo, const EcmpRouter& router);

// File-path convenience wrappers.
void save_trace(const std::string& path, const Trace& trace, const Topology& topo,
                const EcmpRouter& router);
Trace load_trace(const std::string& path, const Topology& topo, const EcmpRouter& router);

}  // namespace flock
