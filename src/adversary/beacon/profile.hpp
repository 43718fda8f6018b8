// Declarative beacon-adversary selection.
//
// Mirrors AgreementAttackProfile for the counting stage: a ScenarioSpec (or
// any caller of the beacon protocol) names an attack by kind plus strength
// knobs, and the per-trial strategy instance is materialised by
// makeBeaconAdversary (src/adversary/beacon/strategies.hpp). Only the knobs
// of the selected kind are read. The presets are the concrete worst cases the
// paper's analysis singles out (the flooder of §1.3 that blacklisting stops,
// Lemma 11's tampered prefix); the beacon and pipeline golden fingerprints
// pin their behaviour.
#pragma once

#include <cstdint>
#include <string>

#include "support/types.hpp"

namespace bzc {

enum class BeaconAttackKind : std::uint8_t {
  None,             ///< relay everything honestly, author nothing
  Flooder,          ///< forge a fresh beacon at every Byzantine node, every iteration
  TargetedFlooder,  ///< forge only within forgeRadius hops of the victim
  Tamperer,         ///< replace relayed beacons with freshly fabricated ones
  Suppressor,       ///< drop all beacon and continue traffic
  ContinueSpammer,  ///< originate continue messages forever
  Full,             ///< flooder + tamperer + continue spam
  AdaptiveFlooder,  ///< flooder that goes quiet for the rest of a phase once
                    ///< observed blacklist pressure crosses a tolerance
  PrefixGrafter,    ///< tamperer that splices the real honest prefix (plus the
                    ///< sender's true ID) under a fabricated origin, so
                    ///< blacklists fill with honest IDs instead of noise
};

[[nodiscard]] const char* beaconAttackKindName(BeaconAttackKind kind);

struct BeaconAdversaryProfile {
  /// Victim sentinel: "anchor to the scenario's placement victim". Resolved
  /// by anchorBeaconProfile (the declarative/plan paths); the strategy
  /// factory rejects it, so a profile meant for direct use must name a
  /// concrete node (0 is a valid, targetable node).
  static constexpr std::uint32_t kScenarioVictim = 0xffffffffu;

  std::string name = "none";
  BeaconAttackKind kind = BeaconAttackKind::None;

  std::uint32_t fakePrefixLength = 2;     ///< fabricated IDs on authored paths
  std::uint32_t forgeRadius = 4;          ///< TargetedFlooder: hops from victim
  std::uint32_t victim = kScenarioVictim; ///< TargetedFlooder: focus node (mod n)
  std::uint64_t pressureTolerance = 64;   ///< AdaptiveFlooder: blacklist insertions
                                          ///< tolerated per phase before backing off
  std::uint32_t graftLength = 2;          ///< PrefixGrafter: fabricated tail IDs

  [[nodiscard]] static BeaconAdversaryProfile none();
  [[nodiscard]] static BeaconAdversaryProfile flooder(std::uint32_t prefixLength = 2);
  [[nodiscard]] static BeaconAdversaryProfile targetedFlooder(std::uint32_t victim,
                                                              std::uint32_t radius = 4,
                                                              std::uint32_t prefixLength = 2);
  [[nodiscard]] static BeaconAdversaryProfile tamperer(std::uint32_t prefixLength = 2);
  [[nodiscard]] static BeaconAdversaryProfile suppressor();
  [[nodiscard]] static BeaconAdversaryProfile continueSpammer();
  [[nodiscard]] static BeaconAdversaryProfile full(std::uint32_t prefixLength = 2);
  [[nodiscard]] static BeaconAdversaryProfile adaptiveFlooder(std::uint64_t tolerance = 64,
                                                              std::uint32_t prefixLength = 2);
  [[nodiscard]] static BeaconAdversaryProfile prefixGrafter(std::uint32_t graftLength = 2);
};

}  // namespace bzc
