#include "counting/baselines/geometric.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/sync_engine.hpp"
#include "support/require.hpp"

namespace bzc {

CountingResult runGeometricMax(const Graph& g, const ByzantineSet& byz, GeometricAttack attack,
                               const GeometricParams& params, Rng& rng) {
  const NodeId n = g.numNodes();
  BZC_REQUIRE(byz.numNodes() == n, "byzantine set size mismatch");
  constexpr std::size_t kValueBits = 64;

  CountingResult result;
  result.decisions.assign(n, {});

  const Round cap = params.maxRounds > 0 ? params.maxRounds : static_cast<Round>(4 * n + 16);
  using Engine = SyncEngine<std::uint32_t>;
  Engine engine(g, byz, cap);

  // Round 1: every honest node floods its own draw. Byzantine nodes hold no
  // coin of their own; under Inflate they announce the forged maximum once.
  std::vector<std::uint32_t> best(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (byz.contains(u)) continue;
    best[u] = rng.geometricFlips();
    engine.broadcast(u, best[u], kValueBits);
  }
  if (attack == GeometricAttack::Inflate) {
    for (NodeId b : byz.members()) engine.broadcast(b, params.inflatedValue, kValueBits);
  }

  // Later rounds: a node whose maximum improved relays it (dirty flooding).
  // Suppressing Byzantine nodes swallow updates; inflating ones keep quiet
  // after round 1 and let honest flooding do the damage for them.
  auto step = [&](NodeId v, Round, const Engine::Inbox& box) {
    std::uint32_t incomingMax = 0;
    for (const Engine::Delivery& in : box) incomingMax = std::max(incomingMax, in.payload);
    if (incomingMax <= best[v]) return;
    best[v] = incomingMax;
    if (byz.contains(v) &&
        (attack == GeometricAttack::Suppress || attack == GeometricAttack::Inflate)) {
      return;
    }
    engine.broadcast(v, best[v], kValueBits);
  };
  const WindowResult run = engine.runWindow(0, step);

  result.totalRounds = static_cast<Round>(engine.round());
  result.hitRoundCap = run.status == WindowStatus::Capped;
  result.meter = engine.releaseMeter();

  const double ln2 = std::log(2.0);
  for (NodeId u = 0; u < n; ++u) {
    if (byz.contains(u)) continue;
    result.decisions[u].decided = true;
    result.decisions[u].round = result.totalRounds;
    result.decisions[u].estimate = static_cast<double>(best[u]) * ln2;
  }
  return result;
}

}  // namespace bzc
