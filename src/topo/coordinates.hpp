// Topology parameters and coordinate arithmetic for a Cray Cascade-style
// dragonfly (the Theta configuration of the paper's Section II).
//
// Identifier scheme (all dense 0-based integers):
//   router id = group * (rows*cols) + row * cols + col
//   node id   = router id * nodes_per_router + slot
//   chassis   = one row of `cols` routers        (paper: 16 routers)
//   cabinet   = `chassis_per_cabinet` chassis    (paper: 3 chassis)
#pragma once

#include <cstdint>
#include <string>

namespace dfly {

using RouterId = std::int32_t;
using NodeId = std::int32_t;
using GroupId = std::int32_t;

struct TopoParams {
  int groups = 9;
  int rows = 6;                    ///< router rows per group (black local links)
  int cols = 16;                   ///< router columns per group (green local links)
  int nodes_per_router = 4;
  int global_ports_per_router = 10;
  int chassis_per_cabinet = 3;

  /// Theta, as described in the paper: 9 groups x (6x16) routers x 4 nodes.
  static TopoParams theta();
  /// A small configuration for unit tests: 3 groups x (2x4) routers x 2 nodes,
  /// 2 global ports per router.
  static TopoParams tiny();

  int routers_per_group() const { return rows * cols; }
  int total_routers() const { return groups * routers_per_group(); }
  int total_nodes() const { return total_routers() * nodes_per_router; }
  int chassis_per_group() const { return rows; }
  int cabinets_per_group() const { return (rows + chassis_per_cabinet - 1) / chassis_per_cabinet; }
  int global_ports_per_group() const { return routers_per_group() * global_ports_per_router; }

  /// Throws std::invalid_argument if the configuration cannot form a valid
  /// symmetric dragonfly (see topo/dragonfly.cpp for the arrangement rule).
  void validate() const;

  std::string describe() const;

  bool operator==(const TopoParams&) const = default;
};

/// Decomposed router coordinate.
struct RouterCoord {
  GroupId group;
  int row;
  int col;
};

class Coordinates {
 public:
  explicit Coordinates(const TopoParams& p) : p_(p) {}

  RouterId router_of_node(NodeId n) const { return n / p_.nodes_per_router; }
  int slot_of_node(NodeId n) const { return n % p_.nodes_per_router; }
  NodeId node_of(RouterId r, int slot) const { return r * p_.nodes_per_router + slot; }

  GroupId group_of_router(RouterId r) const { return r / p_.routers_per_group(); }
  int row_of_router(RouterId r) const { return (r % p_.routers_per_group()) / p_.cols; }
  int col_of_router(RouterId r) const { return r % p_.cols; }
  RouterCoord coord(RouterId r) const { return {group_of_router(r), row_of_router(r), col_of_router(r)}; }
  RouterId router_at(GroupId g, int row, int col) const {
    return g * p_.routers_per_group() + row * p_.cols + col;
  }

  GroupId group_of_node(NodeId n) const { return group_of_router(router_of_node(n)); }
  /// Global chassis index of a router (group-major, then row).
  int chassis_of_router(RouterId r) const {
    return group_of_router(r) * p_.chassis_per_group() + row_of_router(r);
  }
  /// Global cabinet index of a router.
  int cabinet_of_router(RouterId r) const {
    return group_of_router(r) * p_.cabinets_per_group() + row_of_router(r) / p_.chassis_per_cabinet;
  }

  const TopoParams& params() const { return p_; }

 private:
  TopoParams p_;
};

}  // namespace dfly
