// Graph serialization: Graphviz DOT export (examples render small
// topologies).
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace bzc {

/// Graphviz DOT (undirected). `highlight` nodes are drawn filled red —
/// examples use it to mark Byzantine placements.
[[nodiscard]] std::string toDot(const Graph& g, const std::vector<NodeId>& highlight = {});

}  // namespace bzc
