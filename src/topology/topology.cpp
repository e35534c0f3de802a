#include "topology/topology.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace flock {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kHost: return "host";
    case NodeKind::kTor: return "tor";
    case NodeKind::kAgg: return "agg";
    case NodeKind::kCore: return "core";
    case NodeKind::kSpine: return "spine";
  }
  return "?";
}

NodeId Topology::add_node(NodeKind kind, std::int32_t pod, std::int32_t index) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{kind, pod, index});
  adj_.emplace_back();
  if (kind == NodeKind::kHost) {
    hosts_.push_back(id);
    device_index_.push_back(-1);
  } else {
    device_index_.push_back(static_cast<std::int32_t>(switches_.size()));
    switches_.push_back(id);
  }
  return id;
}

LinkId Topology::add_link(NodeId a, NodeId b) {
  if (a == b) throw std::invalid_argument("add_link: self loop");
  LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b});
  adj_[static_cast<std::size_t>(a)].emplace_back(b, id);
  adj_[static_cast<std::size_t>(b)].emplace_back(a, id);
  return id;
}

Topology Topology::without_links(const std::vector<LinkId>& removed) const {
  std::unordered_set<LinkId> gone(removed.begin(), removed.end());
  Topology out;
  for (const Node& n : nodes_) out.add_node(n.kind, n.pod, n.index);
  for (LinkId l = 0; l < num_links(); ++l) {
    if (!gone.count(l)) out.add_link(links_[static_cast<std::size_t>(l)].a,
                                     links_[static_cast<std::size_t>(l)].b);
  }
  return out;
}

std::string Topology::node_name(NodeId id) const {
  const Node& n = node(id);
  std::string name = to_string(n.kind);
  if (n.pod >= 0) name.append("_p").append(std::to_string(n.pod));
  name.append("_").append(std::to_string(n.index >= 0 ? n.index : id));
  return name;
}

bool Topology::is_host_link(LinkId id) const {
  const Link& l = link(id);
  return is_host(l.a) || is_host(l.b);
}

std::vector<LinkId> Topology::switch_links() const {
  std::vector<LinkId> out;
  for (LinkId l = 0; l < num_links(); ++l) {
    if (!is_host_link(l)) out.push_back(l);
  }
  return out;
}

LinkId Topology::host_access_link(NodeId host) const {
  const auto& adj = adjacency(host);
  if (!is_host(host) || adj.size() != 1) {
    throw std::logic_error("host_access_link: not a singly-attached host");
  }
  return adj.front().second;
}

NodeId Topology::tor_of(NodeId host) const {
  return adjacency(host).front().first;
}

ComponentId Topology::device_component(NodeId sw) const {
  std::int32_t idx = device_index_[static_cast<std::size_t>(sw)];
  if (idx < 0) throw std::invalid_argument("device_component: node is a host");
  return num_links() + idx;
}

NodeId Topology::device_node(ComponentId c) const {
  if (!is_device_component(c)) throw std::invalid_argument("device_node: not a device");
  return switches_[static_cast<std::size_t>(c - num_links())];
}

LinkId Topology::component_link(ComponentId c) const {
  if (!is_link_component(c)) throw std::invalid_argument("component_link: not a link");
  return c;
}

std::vector<LinkId> Topology::device_links(NodeId sw) const {
  std::vector<LinkId> out;
  for (const auto& [peer, link] : adjacency(sw)) {
    (void)peer;
    out.push_back(link);
  }
  return out;
}

std::string Topology::component_name(ComponentId c) const {
  if (is_link_component(c)) {
    const Link& l = link(component_link(c));
    return "link(" + node_name(l.a) + "-" + node_name(l.b) + ")";
  }
  return "device(" + node_name(device_node(c)) + ")";
}

Topology make_three_tier_clos(const ThreeTierClosConfig& cfg) {
  if (cfg.pods <= 0 || cfg.tors_per_pod <= 0 || cfg.aggs_per_pod <= 0 || cfg.cores <= 0 ||
      cfg.hosts_per_tor <= 0) {
    throw std::invalid_argument("make_three_tier_clos: non-positive dimension");
  }
  if (cfg.cores % cfg.aggs_per_pod != 0) {
    throw std::invalid_argument("make_three_tier_clos: cores % aggs_per_pod != 0");
  }
  Topology t;
  const std::int32_t cores_per_agg = cfg.cores / cfg.aggs_per_pod;
  std::vector<NodeId> cores(static_cast<std::size_t>(cfg.cores));
  for (std::int32_t c = 0; c < cfg.cores; ++c) {
    cores[static_cast<std::size_t>(c)] = t.add_node(NodeKind::kCore, -1, c);
  }
  for (std::int32_t p = 0; p < cfg.pods; ++p) {
    std::vector<NodeId> aggs(static_cast<std::size_t>(cfg.aggs_per_pod));
    for (std::int32_t a = 0; a < cfg.aggs_per_pod; ++a) {
      aggs[static_cast<std::size_t>(a)] = t.add_node(NodeKind::kAgg, p, a);
      for (std::int32_t c = 0; c < cores_per_agg; ++c) {
        t.add_link(aggs[static_cast<std::size_t>(a)],
                   cores[static_cast<std::size_t>(a * cores_per_agg + c)]);
      }
    }
    for (std::int32_t r = 0; r < cfg.tors_per_pod; ++r) {
      NodeId tor = t.add_node(NodeKind::kTor, p, r);
      for (std::int32_t a = 0; a < cfg.aggs_per_pod; ++a) {
        t.add_link(tor, aggs[static_cast<std::size_t>(a)]);
      }
      for (std::int32_t h = 0; h < cfg.hosts_per_tor; ++h) {
        NodeId host = t.add_node(NodeKind::kHost, p, r * cfg.hosts_per_tor + h);
        t.add_link(host, tor);
      }
    }
  }
  return t;
}

Topology make_fat_tree(std::int32_t k, std::int32_t hosts_per_tor) {
  if (k < 2 || k % 2 != 0) throw std::invalid_argument("make_fat_tree: k must be even >= 2");
  ThreeTierClosConfig cfg;
  cfg.pods = k;
  cfg.tors_per_pod = k / 2;
  cfg.aggs_per_pod = k / 2;
  cfg.cores = (k / 2) * (k / 2);
  cfg.hosts_per_tor = hosts_per_tor > 0 ? hosts_per_tor : k / 2;
  return make_three_tier_clos(cfg);
}

Topology make_leaf_spine(const LeafSpineConfig& cfg) {
  if (cfg.spines <= 0 || cfg.leaves <= 0 || cfg.hosts_per_leaf <= 0) {
    throw std::invalid_argument("make_leaf_spine: non-positive dimension");
  }
  Topology t;
  std::vector<NodeId> spines(static_cast<std::size_t>(cfg.spines));
  for (std::int32_t s = 0; s < cfg.spines; ++s) {
    spines[static_cast<std::size_t>(s)] = t.add_node(NodeKind::kSpine, -1, s);
  }
  for (std::int32_t l = 0; l < cfg.leaves; ++l) {
    NodeId leaf = t.add_node(NodeKind::kTor, l, l);
    for (std::int32_t s = 0; s < cfg.spines; ++s) {
      t.add_link(leaf, spines[static_cast<std::size_t>(s)]);
    }
    for (std::int32_t h = 0; h < cfg.hosts_per_leaf; ++h) {
      NodeId host = t.add_node(NodeKind::kHost, l, l * cfg.hosts_per_leaf + h);
      t.add_link(host, leaf);
    }
  }
  return t;
}

}  // namespace flock
