#include "graph/io.hpp"

#include <sstream>

#include "support/require.hpp"

namespace bzc {

std::string toDot(const Graph& g, const std::vector<NodeId>& highlight) {
  std::vector<char> marked(g.numNodes(), 0);
  for (NodeId u : highlight) {
    BZC_REQUIRE(u < g.numNodes(), "highlight node out of range");
    marked[u] = 1;
  }
  std::ostringstream os;
  os << "graph G {\n  node [shape=circle];\n";
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (marked[u]) os << "  " << u << " [style=filled, fillcolor=red];\n";
  }
  for (const auto& [u, v] : g.edgeList()) os << "  " << u << " -- " << v << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace bzc
