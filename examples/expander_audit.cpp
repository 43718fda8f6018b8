// expander_audit: run the deterministic LOCAL algorithm (Algorithm 1) and
// audit how each honest node came to its decision — by graph exhaustion,
// a mute neighbour, a caught inconsistency, or a detected sparse cut.
//
//   ./expander_audit [n] [attack: honest|silent|conflict|fake-world] [seed]
//
// The fake-world run demonstrates Remark 1: a victim sealed behind a
// Byzantine moat is strung along by a fabricated world and decides whenever
// the adversary's budget runs out — everyone else catches the forgery.
#include <cmath>
#include <cstring>
#include <iostream>

#include "counting/local/protocol.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "support/knob.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace bzc;
  const auto n = static_cast<NodeId>(argKnob(argc, argv, 1, "n", 512, 3, kNoNode - 1));
  const std::string attack = argc > 2 ? argv[2] : "fake-world";
  const std::uint64_t seed = argKnob(argc, argv, 3, "seed", 7, 0, UINT64_MAX);

  Rng rng(seed);
  const Graph g = hnd(n, 8, rng);
  const NodeId victim = 3;

  std::unique_ptr<LocalAdversary> adversary;
  PlacementSpec spec;
  spec.victim = victim;
  spec.moatRadius = 1;
  if (attack == "honest") {
    adversary = makeHonestLocalAdversary();
    spec.kind = Placement::None;
  } else if (attack == "silent") {
    adversary = makeSilentLocalAdversary();
    spec.kind = Placement::Random;
    spec.count = byzantineBudget(n, 0.55);
  } else if (attack == "conflict") {
    adversary = makeConflictLocalAdversary();
    spec.kind = Placement::Random;
    spec.count = byzantineBudget(n, 0.55);
  } else if (attack == "fake-world") {
    adversary = makeFakeWorldLocalAdversary({});
    spec.kind = Placement::Surround;
    spec.count = 64;  // enough budget to seal a radius-1 moat in H(n,8)
  } else {
    std::cerr << "unknown attack '" << attack << "'\n";
    return 1;
  }

  Rng placeRng = rng.fork(1);
  const auto byz = placeByzantine(g, spec, placeRng);
  LocalParams params;
  Rng runRng = rng.fork(2);
  const auto out = runLocalCounting(g, byz, *adversary, params, runRng, victim);

  std::cout << "graph: H(" << n << ",8), diameter " << exactDiameter(g) << ", attack '"
            << adversary->name() << "', " << byz.count() << " Byzantine nodes\n\n";

  Table table({"decision reason", "nodes", "mean estimate", "mean dist-to-Byz"});
  const char* names[] = {"undecided", "inconsistency", "mute neighbour", "ball growth",
                         "sparse cut"};
  for (int reason = 0; reason < 5; ++reason) {
    std::size_t count = 0;
    double estSum = 0;
    double distSum = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (byz.contains(u)) continue;
      if (static_cast<int>(out.stats.reason[u]) != reason) continue;
      ++count;
      estSum += out.result.decisions[u].estimate;
      distSum += out.stats.distToByz[u] == kUnreachable ? 0.0 : out.stats.distToByz[u];
    }
    if (count == 0) continue;
    table.addRow({names[reason], Table::integer(static_cast<long long>(count)),
                  Table::num(estSum / count, 2), Table::num(distSum / count, 2)});
  }
  table.print(std::cout);

  if (attack == "fake-world") {
    std::cout << "\nvictim node " << victim << ": decided at round "
              << out.result.decisions[victim].round << " with estimate "
              << out.result.decisions[victim].estimate
              << " (network-wide max is otherwise ~" << exactDiameter(g) + 1 << ") — the\n"
              << "adversary chose the victim's termination time, as Remark 1 predicts.\n";
  }
  std::cout << "\ntotal rounds: " << out.result.totalRounds << '\n';
  return 0;
}
