// Cascade-style dragonfly wiring: port layout, local (row/column all-to-all)
// links, and a deterministic symmetric global-link arrangement.
//
// Port layout on every router (indices are contiguous):
//   [0, N)                terminal ports, one per attached compute node
//   [N, N+C-1)            row-local ports (one per other column in my row)
//   [N+C-1, N+C-1+R-1)    column-local ports (one per other row in my column)
//   [.., +G)              global ports
//
// Global arrangement: number each group's global ports linearly as
// i = router_in_group * G + port. Port i points at peer group peers[i % (P-1)]
// where `peers` lists the other groups in increasing order. For a pair (a,b),
// the j-th port of a pointing at b connects to the j-th port of b pointing at
// a — symmetric by construction and validated at build time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topo/coordinates.hpp"
#include "util/rng.hpp"

namespace dfly {

enum class PortKind : std::uint8_t { Terminal, LocalRow, LocalCol, Global };

const char* to_string(PortKind kind);

/// One directed side of a global link.
struct GlobalLink {
  RouterId src_router;
  int src_port;  ///< absolute port index on src_router
  RouterId dst_router;
  int dst_port;
};

class DragonflyTopology {
 public:
  explicit DragonflyTopology(const TopoParams& params);

  const TopoParams& params() const { return params_; }
  const Coordinates& coords() const { return coords_; }

  int ports_per_router() const { return ports_per_router_; }
  int first_row_port() const { return params_.nodes_per_router; }
  int first_col_port() const { return first_row_port() + params_.cols - 1; }
  int first_global_port() const { return first_col_port() + params_.rows - 1; }

  PortKind port_kind(int port) const;

  /// Peer router of (router, port); asserts the port is not a terminal port.
  RouterId neighbor(RouterId router, int port) const;
  /// The port index on the peer router that the reverse channel uses.
  int neighbor_port(RouterId router, int port) const;

  /// Port on `from` that reaches `to`, which must share `from`'s row.
  int row_port_to(RouterId from, RouterId to) const;
  /// Port on `from` that reaches `to`, which must share `from`'s column.
  int col_port_to(RouterId from, RouterId to) const;
  /// Port for any router in the same group reachable in one local hop;
  /// returns -1 if `to` is neither in the same row nor column.
  int local_port_to(RouterId from, RouterId to) const;

  /// All *enabled* global links from group `ga` to group `gb` (directed
  /// view). Disabled links are excluded, so routing built on these lists
  /// automatically avoids them.
  std::span<const GlobalLink> global_links(GroupId ga, GroupId gb) const;

  // --- static degradation ----------------------------------------------------
  // Global links can be marked failed (both directions at once) while the
  // topology is being set up. Routing tables snapshot the link lists when
  // they are built, so degrade the fabric before building any routing
  // algorithm on it; the topology is immutable once a run starts.

  /// Disables the `index`-th enabled link between groups a and b (order as
  /// returned by global_links(a, b)). Throws std::invalid_argument if a or b
  /// is not a group, a == b, the index is out of range, or it is the last
  /// link of the pair (the pair would disconnect).
  void disable_global_link(GroupId a, GroupId b, int index);

  /// True unless the port is a global port whose link was disabled.
  bool port_enabled(RouterId router, int port) const;

  int disabled_global_links() const { return disabled_count_; }

  /// Total number of directed (router, port) channels, used to size metric
  /// arrays: channel id = router * ports_per_router + port.
  int total_channels() const { return params_.total_routers() * ports_per_router_; }
  int channel_id(RouterId router, int port) const { return router * ports_per_router_ + port; }
  RouterId channel_router(int channel) const { return channel / ports_per_router_; }
  int channel_port(int channel) const { return channel % ports_per_router_; }

 private:
  void build_global_links();

  std::size_t global_flag_index(RouterId router, int port) const {
    return static_cast<std::size_t>(router) * params_.global_ports_per_router +
           (port - first_global_port());
  }

  TopoParams params_;
  Coordinates coords_;
  int ports_per_router_;
  /// Flattened per-ordered-group-pair lists of enabled links; pair (a,b) with
  /// a!=b maps to index a*groups+b.
  std::vector<std::vector<GlobalLink>> global_links_;
  /// Per global port: peer router and peer port (-1 where unused).
  std::vector<RouterId> global_peer_router_;
  std::vector<int> global_peer_port_;
  /// Per global port: link failed (indexed router * gpr + local global port).
  std::vector<char> global_port_disabled_;
  int disabled_count_ = 0;
};

/// Disables a random `fraction` of each group pair's global links (never the
/// last one). Returns the number of links disabled.
int disable_random_global_links(DragonflyTopology& topo, double fraction, Rng& rng);

}  // namespace dfly
