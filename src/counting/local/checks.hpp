// Expansion checks for Algorithm 1 (Lines 9-13 of the pseudocode).
//
// The paper checks *every* subset of B̂(u,i) for vertex expansion >= α' in
// B̂(u,i+1) — an analysis device with exponential cost. DESIGN.md §2
// documents the substitution implemented here; the check is decomposed into:
//
//  1. Ball-growth: the BFS-layer prefixes S_j must satisfy
//     |Out(S_j)| >= α'|S_j| (Out(S_j) is the next layer, and the referenced
//     boundary for the newest prefix). This is exactly the set family the
//     proofs of Lemmas 3 and 5 examine; it fires on benign exhaustion
//     (boundary empties at i = ecc(u)) and on throttled fake growth.
//  2. Spectral sweep: a Fiedler-vector sweep cut over the view upper-bounds
//     the view's vertex expansion and fires when a large fabricated region
//     hangs behind an o(n)-sized cut while total layer growth still looks
//     healthy — the Lemma 5 attack case the prefix family alone misses.
//  3. Exact subset enumeration (tiny views only) — ground truth for tests.
//
// A monitor is per-node and persistent: its RNG stream seeds every round's
// Fiedler solve.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "counting/local/view.hpp"
#include "support/rng.hpp"

namespace bzc {

struct LocalCheckParams {
  double alphaPrime = 0.10;        ///< α' threshold (< assumed expansion α)
  bool ballGrowthEnabled = true;
  bool spectralEnabled = true;
  std::uint32_t spectralMinSize = 96;   ///< skip the sweep on smaller views
  std::uint32_t spectralMinSide = 8;    ///< ignore cuts with a tiny small side
  std::uint32_t spectralIters = 10;     ///< each check runs 5x this many cold power iterations
};

enum class ExpansionVerdict : std::uint8_t {
  Healthy,
  BallGrowthViolation,
  SparseCutDetected,
};

class ExpansionMonitor {
 public:
  ExpansionMonitor(LocalCheckParams params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

  /// Runs the configured checks against the view as of the end of `round`.
  [[nodiscard]] ExpansionVerdict inspect(const LocalView& view, Round round);

  /// The first `nInt` vertices of the view graph in the order the spectral
  /// sweep scans them: ascending Fiedler value (ties by id) from a cold solve
  /// of 5 × spectralIters power iterations on the monitor's stream.
  [[nodiscard]] std::vector<NodeId> sweepOrder(const Graph& viewGraph, NodeId nInt);

 private:
  [[nodiscard]] bool ballGrowthHealthy(const LocalView& view, Round round) const;
  [[nodiscard]] bool sweepHealthy(const LocalView& view);

  LocalCheckParams params_;
  Rng rng_;
};

/// Exact minimum vertex expansion over all subsets S of the *integrated*
/// part of the view, measured in the view graph (boundary vertices count
/// toward Out(S)). Views of up to 20 integrated vertices only.
[[nodiscard]] double exactViewSubsetExpansion(const LocalView& view);

}  // namespace bzc
