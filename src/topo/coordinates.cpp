#include "topo/coordinates.hpp"

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace dfly {

TopoParams TopoParams::theta() { return TopoParams{}; }

TopoParams TopoParams::tiny() {
  TopoParams p;
  p.groups = 3;
  p.rows = 2;
  p.cols = 4;
  p.nodes_per_router = 2;
  p.global_ports_per_router = 2;
  p.chassis_per_cabinet = 1;
  return p;
}

void TopoParams::validate() const {
  auto fail = [](const std::string& msg) { throw std::invalid_argument("TopoParams: " + msg); };
  if (groups < 2) fail("need at least 2 groups");
  if (rows < 1 || cols < 2) fail("need rows >= 1 and cols >= 2");
  if (nodes_per_router < 1) fail("need at least 1 node per router");
  if (global_ports_per_router < 1) fail("need at least 1 global port per router");
  if (chassis_per_cabinet < 1) fail("need at least 1 chassis per cabinet");
  // The deterministic global arrangement distributes each group's global
  // ports round-robin over its (groups-1) peers; requiring divisibility makes
  // every group pair get the same number of links, which is also what keeps
  // the pairwise port matching symmetric.
  if (global_ports_per_group() % (groups - 1) != 0)
    fail("global ports per group (" + std::to_string(global_ports_per_group()) +
         ") must divide evenly among " + std::to_string(groups - 1) + " peer groups");
  // Identifier spaces are 32-bit ints; the widest is the directed channel id
  // (router * ports_per_router + port). Check it in 64-bit arithmetic — the
  // int products total_routers() and total_channels() would themselves
  // overflow (UB) before any downstream bound could catch the problem.
  const std::int64_t routers64 = std::int64_t{groups} * rows * cols;
  const std::int64_t ports64 =
      std::int64_t{nodes_per_router} + (cols - 1) + (rows - 1) + global_ports_per_router;
  constexpr std::int64_t kIdMax = std::numeric_limits<std::int32_t>::max();
  // Routes store ports (and routing tables rows/columns) as int16_t.
  constexpr std::int64_t kPortMax = std::numeric_limits<std::int16_t>::max();
  if (ports64 > kPortMax)
    fail(std::to_string(ports64) + " ports per router exceed the 16-bit hop port limit of " +
         std::to_string(kPortMax));
  if (routers64 * ports64 > kIdMax)
    fail("channel id space overflows 32-bit ids: " + std::to_string(routers64) + " routers x " +
         std::to_string(ports64) + " ports per router exceeds " + std::to_string(kIdMax));
}

std::string TopoParams::describe() const {
  std::ostringstream os;
  os << groups << " groups x (" << rows << "x" << cols << ") routers x " << nodes_per_router
     << " nodes = " << total_nodes() << " nodes, " << global_ports_per_router
     << " global ports/router";
  return os.str();
}

}  // namespace dfly
