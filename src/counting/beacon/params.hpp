// Parameters of Algorithm 2 (Byzantine counting with small messages).
//
// Everything a node uses here is *local* knowledge: its own degree and the
// fixed constants gamma, delta, c1 (the paper's pseudocode states nodes know
// nothing global "apart from gamma"). Derived quantities follow the paper:
//
//   eq (2):  gamma >= 1/2 - delta + eta      (Byzantine budget n^(1-gamma))
//   eq (3):  epsilon = 1 - (1-delta)*gamma / ln d
//   Line 1:  phases i = c, c+1, ...          (c a sufficiently large constant)
//   Line 3:  floor(e^((1-gamma)*i)) + 1 iterations per phase
//   Line 5:  activation probability c1*i / d^i
//   Line 20: blacklist everything except the last floor((1-epsilon)*i) path
//            entries
//   text:    each iteration = (i+2) beacon rounds + (i+3) continue rounds
#pragma once

#include <cstdint>

#include "support/types.hpp"

namespace bzc {

/// How a node picks among simultaneously received beacons (Line 14 says
/// "arbitrarily"; we make the choice explicit and test both policies).
enum class BeaconChoicePolicy {
  FirstSeen,         ///< lowest-index sender wins, acceptability ignored
  PreferAcceptable,  ///< prefer a non-blacklisted beacon, then shortest path
};

/// Phase progression. Linear is the paper's Line 1 (i, i+1, i+2, ...).
/// Doubling (i, 2i, 4i, ...) is an *experimental* variant probing the
/// paper's open problem of cheaper small-message counting: it reaches the
/// deciding phase in O(log log n) guesses at the cost of up to 2x extra
/// slack in the estimate and a heavier final phase. T8 measures the trade.
enum class PhaseSchedule {
  Linear,
  Doubling,
};

struct BeaconParams {
  double gamma = 0.55;  ///< Byzantine budget exponent; eq (2) needs > 1/2 - delta
  double delta = 0.1;   ///< slack constant of eq (2)/(3)
  double c1 = 4.0;      ///< activation scale (Line 5)
  std::uint32_t firstPhase = 2;  ///< the constant c of Line 1

  BeaconChoicePolicy choice = BeaconChoicePolicy::PreferAcceptable;
  PhaseSchedule schedule = PhaseSchedule::Linear;

  // Ablation toggles (experiment T8). Production value: both true.
  bool blacklistEnabled = true;
  bool continueEnabled = true;

  /// Successor phase under the configured schedule.
  [[nodiscard]] std::uint32_t nextPhase(std::uint32_t phase) const {
    return schedule == PhaseSchedule::Linear ? phase + 1 : 2 * phase;
  }

  /// eq (3). d is the node's own degree.
  [[nodiscard]] double epsilon(std::uint32_t d) const;

  /// Path suffix length the blacklist spares: floor((1-epsilon)*i).
  [[nodiscard]] std::uint32_t blacklistSuffix(std::uint32_t phase, std::uint32_t d) const;

  /// floor(e^((1-gamma)*i)) + 1 (Line 3).
  [[nodiscard]] std::uint32_t iterationsForPhase(std::uint32_t phase) const;

  /// min(1, c1 * i / d^i) (Line 5).
  [[nodiscard]] double activationProbability(std::uint32_t phase, std::uint32_t degree) const;

  /// Rounds in one iteration of phase i: (i+2) beacon + (i+3) continue.
  [[nodiscard]] static constexpr std::uint32_t roundsPerIteration(std::uint32_t phase) {
    return 2 * phase + 5;
  }

  /// Throws std::invalid_argument when constraints (gamma, delta ranges,
  /// eq (2) feasibility) are violated.
  void validate() const;
};

/// Simulation-only safety limits (the protocol itself never sees n; the
/// harness uses these to bound runs that an attack keeps alive forever).
struct BeaconLimits {
  std::uint32_t maxPhase = 0;        ///< 0: auto = ceil(2.5*ln n) + 6
  std::uint64_t maxTotalRounds = 0;  ///< 0: auto = 50M
};

}  // namespace bzc
