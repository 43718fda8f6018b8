#include "counting/baselines/support_estimation.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/sync_engine.hpp"
#include "support/require.hpp"

namespace bzc {

CountingResult runSupportEstimation(const Graph& g, const ByzantineSet& byz, SupportAttack attack,
                                    const SupportParams& params, Rng& rng) {
  const NodeId n = g.numNodes();
  BZC_REQUIRE(byz.numNodes() == n, "byzantine set size mismatch");
  BZC_REQUIRE(params.coordinates >= 1, "need at least one coordinate");
  const std::uint32_t k = params.coordinates;
  const std::size_t messageBits = static_cast<std::size_t>(k) * 64;

  CountingResult result;
  result.decisions.assign(n, {});

  // A message is "my current coordinate-wise minima": receivers read the
  // sender's row directly (rows are stable for the whole run, and updates are
  // deferred to the end-of-round hook, so a row read during delivery is
  // exactly the state the sender flushed).
  struct MinsRef {};
  using Engine = SyncEngine<MinsRef>;
  const Round cap = params.maxRounds > 0 ? params.maxRounds : static_cast<Round>(4 * n + 16);
  Engine engine(g, byz, cap);

  // mins[u*k + j]: node u's current minimum for coordinate j.
  std::vector<double> mins(static_cast<std::size_t>(n) * k);
  for (NodeId u = 0; u < n; ++u) {
    const bool isByz = byz.contains(u);
    for (std::uint32_t j = 0; j < k; ++j) {
      double draw = rng.exponential();  // burn a draw for byz too: keeps the
                                        // honest sequence placement-invariant
      if (isByz && attack == SupportAttack::ZeroInject) draw = params.injectedValue;
      mins[static_cast<std::size_t>(u) * k + j] = draw;
    }
    if (!isByz || attack != SupportAttack::Suppress) engine.broadcast(u, MinsRef{}, messageBits);
  }

  std::vector<double> incoming(static_cast<std::size_t>(n) * k,
                               std::numeric_limits<double>::infinity());
  std::vector<NodeId> touched;
  auto fold = [&](NodeId v, Round, const Engine::Inbox& box) {
    touched.push_back(v);
    for (const Engine::Delivery& in : box) {
      const std::size_t senderRow = static_cast<std::size_t>(in.sender) * k;
      for (std::uint32_t j = 0; j < k; ++j) {
        const std::size_t vi = static_cast<std::size_t>(v) * k + j;
        incoming[vi] = std::min(incoming[vi], mins[senderRow + j]);
      }
    }
  };
  auto applyUpdates = [&](Round) {
    for (NodeId v : touched) {
      bool improved = false;
      for (std::uint32_t j = 0; j < k; ++j) {
        const std::size_t vi = static_cast<std::size_t>(v) * k + j;
        if (incoming[vi] < mins[vi]) {
          mins[vi] = incoming[vi];
          improved = true;
        }
        incoming[vi] = std::numeric_limits<double>::infinity();
      }
      if (improved && !(byz.contains(v) && attack == SupportAttack::Suppress)) {
        engine.broadcast(v, MinsRef{}, messageBits);
      }
    }
    touched.clear();
    return true;
  };
  const WindowResult run = engine.runWindow(0, NoEmit{}, fold, applyUpdates);

  result.totalRounds = static_cast<Round>(engine.round());
  result.hitRoundCap = run.status == WindowStatus::Capped;
  result.meter = engine.releaseMeter();

  for (NodeId u = 0; u < n; ++u) {
    if (byz.contains(u)) continue;
    double sum = 0.0;
    for (std::uint32_t j = 0; j < k; ++j) sum += mins[static_cast<std::size_t>(u) * k + j];
    const double estimateN = sum > 0 ? static_cast<double>(k) / sum : 0.0;
    result.decisions[u].decided = true;
    result.decisions[u].round = result.totalRounds;
    result.decisions[u].estimate = estimateN > 1.0 ? std::log(estimateN) : 0.0;
  }
  return result;
}

}  // namespace bzc
