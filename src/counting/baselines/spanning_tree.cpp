#include "counting/baselines/spanning_tree.hpp"

#include <algorithm>
#include <cmath>

#include "graph/bfs.hpp"
#include "runtime/sync_engine.hpp"
#include "support/require.hpp"

namespace bzc {

CountingResult runSpanningTreeCount(const Graph& g, const ByzantineSet& byz, TreeAttack attack,
                                    const TreeParams& params) {
  const NodeId n = g.numNodes();
  BZC_REQUIRE(byz.numNodes() == n, "byzantine set size mismatch");
  BZC_REQUIRE(params.root < n, "root out of range");
  BZC_REQUIRE(!byz.contains(params.root), "root must be honest");

  CountingResult result;
  result.decisions.assign(n, {});

  // Stage 1: BFS tree (every node, Byzantine or not, joins; refusing to join
  // is subsumed by the Mute attack in stage 2).
  const auto dist = bfsDistances(g, params.root);
  std::vector<NodeId> parent(n, kNoNode);
  std::uint32_t depth = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (dist[u] == kUnreachable || u == params.root) continue;
    depth = std::max(depth, dist[u]);
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] + 1 == dist[u]) {
        parent[u] = std::min(parent[u], v);  // deterministic: smallest-index parent
      }
    }
  }

  // Stage 2: converge-cast subtree counts on the engine, deepest layer first —
  // round r is when the layer at distance depth-r+1 reports to its parents.
  std::vector<std::vector<NodeId>> layers(depth + 1);
  for (NodeId u = 0; u < n; ++u) {
    if (dist[u] != kUnreachable) layers[dist[u]].push_back(u);
  }
  using Engine = SyncEngine<std::uint64_t>;
  Engine engine(g, byz);
  std::vector<std::uint64_t> subtree(n, 0);
  auto report = [&](Round r) {
    for (NodeId u : layers[depth - r + 1]) {
      std::uint64_t reported = subtree[u] + 1;  // children already accumulated
      if (byz.contains(u)) {
        switch (attack) {
          case TreeAttack::None: break;
          case TreeAttack::Inflate: reported += params.inflationBoost; break;
          case TreeAttack::Undercount: reported = 1; break;
          case TreeAttack::Mute: reported = 0; break;
        }
      }
      if (reported > 0 && parent[u] != kNoNode) engine.unicast(u, parent[u], reported, 64);
    }
  };
  auto accumulate = [&](NodeId v, Round, const Engine::Inbox& box) {
    for (const Engine::Delivery& in : box) subtree[v] += in.payload;
  };
  const WindowResult convergecast =
      engine.runWindow(depth, report, accumulate, NoEnd{}, IdlePolicy::RunFullWindow);
  engine.skipRounds(depth - convergecast.roundsRun);
  const std::uint64_t announced = subtree[params.root] + 1;

  // Stage 3: root broadcasts the total down the tree (depth+1 rounds). A
  // Byzantine ancestor could also corrupt the downward broadcast; the
  // converge-cast attack already demonstrates the failure, so the broadcast
  // is modelled as reliable flooding with one 64-bit message per honest node.
  engine.skipRounds(depth + 1);
  for (NodeId u = 0; u < n; ++u) {
    if (byz.contains(u) || dist[u] == kUnreachable) continue;
    engine.meter().record(u, 64);
    result.decisions[u].decided = true;
    result.decisions[u].round = static_cast<Round>(engine.round());
    result.decisions[u].estimate = announced > 1 ? std::log(static_cast<double>(announced)) : 0.0;
  }
  result.totalRounds = static_cast<Round>(engine.round());
  result.meter = engine.releaseMeter();
  return result;
}

}  // namespace bzc
