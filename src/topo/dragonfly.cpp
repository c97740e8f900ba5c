#include "topo/dragonfly.hpp"

#include <cassert>
#include <stdexcept>

namespace dfly {

const char* to_string(PortKind kind) {
  switch (kind) {
    case PortKind::Terminal: return "terminal";
    case PortKind::LocalRow: return "local-row";
    case PortKind::LocalCol: return "local-col";
    case PortKind::Global: return "global";
  }
  return "?";
}

DragonflyTopology::DragonflyTopology(const TopoParams& params)
    : params_(params), coords_(params) {
  params_.validate();
  ports_per_router_ = params_.nodes_per_router + (params_.cols - 1) + (params_.rows - 1) +
                      params_.global_ports_per_router;
  build_global_links();
}

PortKind DragonflyTopology::port_kind(int port) const {
  assert(port >= 0 && port < ports_per_router_);
  if (port < first_row_port()) return PortKind::Terminal;
  if (port < first_col_port()) return PortKind::LocalRow;
  if (port < first_global_port()) return PortKind::LocalCol;
  return PortKind::Global;
}

RouterId DragonflyTopology::neighbor(RouterId router, int port) const {
  const PortKind kind = port_kind(port);
  const RouterCoord c = coords_.coord(router);
  switch (kind) {
    case PortKind::Terminal:
      assert(false && "terminal ports have no router neighbor");
      return -1;
    case PortKind::LocalRow: {
      const int idx = port - first_row_port();          // 0..cols-2
      const int col = idx < c.col ? idx : idx + 1;      // skip own column
      return coords_.router_at(c.group, c.row, col);
    }
    case PortKind::LocalCol: {
      const int idx = port - first_col_port();          // 0..rows-2
      const int row = idx < c.row ? idx : idx + 1;      // skip own row
      return coords_.router_at(c.group, row, c.col);
    }
    case PortKind::Global: {
      const int gidx = router * params_.global_ports_per_router + (port - first_global_port());
      return global_peer_router_[gidx];
    }
  }
  return -1;
}

int DragonflyTopology::neighbor_port(RouterId router, int port) const {
  const PortKind kind = port_kind(port);
  const RouterId peer = neighbor(router, port);
  switch (kind) {
    case PortKind::Terminal:
      return -1;
    case PortKind::LocalRow:
      return row_port_to(peer, router);
    case PortKind::LocalCol:
      return col_port_to(peer, router);
    case PortKind::Global: {
      const int gidx = router * params_.global_ports_per_router + (port - first_global_port());
      return global_peer_port_[gidx];
    }
  }
  return -1;
}

int DragonflyTopology::row_port_to(RouterId from, RouterId to) const {
  const RouterCoord a = coords_.coord(from);
  const RouterCoord b = coords_.coord(to);
  assert(a.group == b.group && a.row == b.row && a.col != b.col);
  return first_row_port() + (b.col < a.col ? b.col : b.col - 1);
}

int DragonflyTopology::col_port_to(RouterId from, RouterId to) const {
  const RouterCoord a = coords_.coord(from);
  const RouterCoord b = coords_.coord(to);
  assert(a.group == b.group && a.col == b.col && a.row != b.row);
  return first_col_port() + (b.row < a.row ? b.row : b.row - 1);
}

int DragonflyTopology::local_port_to(RouterId from, RouterId to) const {
  const RouterCoord a = coords_.coord(from);
  const RouterCoord b = coords_.coord(to);
  if (a.group != b.group || from == to) return -1;
  if (a.row == b.row) return row_port_to(from, to);
  if (a.col == b.col) return col_port_to(from, to);
  return -1;
}

std::span<const GlobalLink> DragonflyTopology::global_links(GroupId ga, GroupId gb) const {
  assert(ga != gb);
  return global_links_[static_cast<std::size_t>(ga) * params_.groups + gb];
}

void DragonflyTopology::build_global_links() {
  const int groups = params_.groups;
  const int gpr = params_.global_ports_per_router;
  const int rpg = params_.routers_per_group();
  const int ports_per_group = rpg * gpr;
  const int links_per_pair = ports_per_group / (groups - 1);

  global_links_.assign(static_cast<std::size_t>(groups) * groups, {});
  global_peer_router_.assign(static_cast<std::size_t>(params_.total_routers()) * gpr, -1);
  global_peer_port_.assign(global_peer_router_.size(), -1);

  // Linear port index i of group g points at g's (i % (groups-1))-th peer
  // group (the other groups in increasing order); the
  // j-th port of g pointing at peer h pairs with the j-th port of h pointing
  // at g.
  auto ports_toward = [&](GroupId g, GroupId h) {
    std::vector<int> ports;
    ports.reserve(links_per_pair);
    const int k = h < g ? h : h - 1;  // index of h in g's peer list
    for (int i = k; i < ports_per_group; i += groups - 1) ports.push_back(i);
    return ports;
  };

  for (GroupId a = 0; a < groups; ++a) {
    for (GroupId b = a + 1; b < groups; ++b) {
      const std::vector<int> pa = ports_toward(a, b);
      const std::vector<int> pb = ports_toward(b, a);
      if (pa.size() != pb.size())
        throw std::logic_error("dragonfly global arrangement is asymmetric");
      auto& forward = global_links_[static_cast<std::size_t>(a) * groups + b];
      auto& backward = global_links_[static_cast<std::size_t>(b) * groups + a];
      for (std::size_t j = 0; j < pa.size(); ++j) {
        const RouterId ra = a * rpg + pa[j] / gpr;
        const int porta = first_global_port() + pa[j] % gpr;
        const RouterId rb = b * rpg + pb[j] / gpr;
        const int portb = first_global_port() + pb[j] % gpr;
        forward.push_back(GlobalLink{ra, porta, rb, portb});
        backward.push_back(GlobalLink{rb, portb, ra, porta});
        global_peer_router_[static_cast<std::size_t>(ra) * gpr + pa[j] % gpr] = rb;
        global_peer_port_[static_cast<std::size_t>(ra) * gpr + pa[j] % gpr] = portb;
        global_peer_router_[static_cast<std::size_t>(rb) * gpr + pb[j] % gpr] = ra;
        global_peer_port_[static_cast<std::size_t>(rb) * gpr + pb[j] % gpr] = porta;
      }
    }
  }

  // Every global port must be wired exactly once.
  for (const RouterId peer : global_peer_router_)
    if (peer < 0) throw std::logic_error("dragonfly global arrangement left a port unwired");

  global_port_disabled_.assign(global_peer_router_.size(), 0);
}

void DragonflyTopology::disable_global_link(GroupId a, GroupId b, int index) {
  if (a < 0 || a >= params_.groups || b < 0 || b >= params_.groups)
    throw std::invalid_argument("disable_global_link: group out of range");
  if (a == b) throw std::invalid_argument("disable_global_link: a == b");
  auto& forward = global_links_[static_cast<std::size_t>(a) * params_.groups + b];
  if (index < 0 || index >= static_cast<int>(forward.size()))
    throw std::invalid_argument("disable_global_link: index out of range");
  if (forward.size() <= 1)
    throw std::invalid_argument("disable_global_link: would disconnect the group pair");
  const GlobalLink link = forward[index];

  global_port_disabled_[global_flag_index(link.src_router, link.src_port)] = 1;
  global_port_disabled_[global_flag_index(link.dst_router, link.dst_port)] = 1;

  forward.erase(forward.begin() + index);
  auto& backward = global_links_[static_cast<std::size_t>(b) * params_.groups + a];
  for (auto it = backward.begin(); it != backward.end(); ++it) {
    if (it->src_router == link.dst_router && it->src_port == link.dst_port) {
      backward.erase(it);
      break;
    }
  }
  ++disabled_count_;
}

bool DragonflyTopology::port_enabled(RouterId router, int port) const {
  return port_kind(port) != PortKind::Global ||
         global_port_disabled_[global_flag_index(router, port)] == 0;
}

int disable_random_global_links(DragonflyTopology& topo, double fraction, Rng& rng) {
  if (fraction < 0 || fraction >= 1)
    throw std::invalid_argument("disable_random_global_links: fraction must be in [0, 1)");
  int disabled = 0;
  const int groups = topo.params().groups;
  for (GroupId a = 0; a < groups; ++a) {
    for (GroupId b = a + 1; b < groups; ++b) {
      const auto initial = static_cast<int>(topo.global_links(a, b).size());
      const int target = static_cast<int>(fraction * initial);
      for (int k = 0; k < target && static_cast<int>(topo.global_links(a, b).size()) > 1; ++k) {
        const auto remaining = static_cast<std::uint64_t>(topo.global_links(a, b).size());
        topo.disable_global_link(a, b, static_cast<int>(rng.uniform(remaining)));
        ++disabled;
      }
    }
  }
  return disabled;
}

}  // namespace dfly
