// Declarative walk-adversary selection.
//
// Mirrors BeaconAdversaryProfile for the agreement stage: a ScenarioSpec (or
// any caller of the agreement protocol) names an attack by kind plus strength
// knobs, and the per-trial strategy instance is materialised from the profile
// by makeWalkAdversary (src/adversary/strategies.hpp). Only the knobs of the
// selected kind are read. The default profile is the adaptive minority
// answerer the protocol always had — existing scenarios, goldens and benches
// are unchanged unless they opt into an attack.
#pragma once

#include <cstdint>
#include <string>

#include "support/types.hpp"

namespace bzc {

enum class WalkAttackKind : std::uint8_t {
  AdaptiveMinority,  ///< taint traversing queries; answer the live honest minority
  TokenDropper,      ///< silently discard traversing queries
  AnswerFlipper,     ///< relay queries honestly; invert answer bits on the return path
  PathTamperer,      ///< rewrite the reverse path so answers are misrouted
  VictimHunter,      ///< coalition: concentrate consistent lies on samples
                     ///< originating near the scenario victim
};

[[nodiscard]] const char* walkAttackKindName(WalkAttackKind kind);

struct AgreementAttackProfile {
  std::string name = "adaptive-minority";
  WalkAttackKind kind = WalkAttackKind::AdaptiveMinority;

  double dropProbability = 1.0;    ///< TokenDropper: per-contact discard chance
  double flipProbability = 1.0;    ///< AnswerFlipper: per-relay inversion chance
  double tamperProbability = 1.0;  ///< PathTamperer: per-relay misroute chance
  std::uint32_t huntRadius = 2;    ///< VictimHunter: target origins within this
                                   ///< distance of the victim

  [[nodiscard]] static AgreementAttackProfile adaptiveMinority();
  [[nodiscard]] static AgreementAttackProfile dropper(double probability = 1.0);
  [[nodiscard]] static AgreementAttackProfile flipper(double probability = 1.0);
  [[nodiscard]] static AgreementAttackProfile tamperer(double probability = 1.0);
  [[nodiscard]] static AgreementAttackProfile hunter(std::uint32_t radius = 2);
};

}  // namespace bzc
