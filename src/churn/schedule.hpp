// Declarative churn description for dynamic-network scenarios.
//
// The paper's motivating setting (§1) is an unstructured P2P overlay whose
// size changes continuously; a ChurnSchedule turns that into a declarative
// axis of ScenarioSpec the same way AgreementAttackProfile made Byzantine
// walk behaviour declarative. The schedule names a ChurnModel from the
// gallery (src/churn/churn_model.hpp) plus its strength knobs, the number of
// epochs the overlay evolves through, and the recount cadence — how many
// epochs the network keeps using a stale size estimate before re-running the
// counting pipeline. Only the knobs of the selected model kind are read.
//
// This header is deliberately dependency-free so runtime/experiment.hpp can
// embed a ChurnSchedule without pulling the subsystem into every translation
// unit; the model gallery and the epoch loop live in src/churn/*.cpp.
#pragma once

#include <cstdint>

namespace bzc {

enum class ChurnModelKind : std::uint8_t {
  None,            ///< static network: the scenario runs exactly one epoch
  Steady,          ///< Poisson join/leave at constant per-member rates
  FlashCrowd,      ///< steady background plus one join spike at flashEpoch
  MassExodus,      ///< steady background plus one departure wave at exodusEpoch
  ByzantineChurn,  ///< Byzantine members fake departures and rejoin with fresh
                   ///< identities, inflating their effective budget over time
};

[[nodiscard]] const char* churnModelKindName(ChurnModelKind kind);

struct ChurnSchedule {
  ChurnModelKind kind = ChurnModelKind::None;
  std::uint32_t epochs = 1;  ///< membership snapshots simulated (epoch 1 = initial overlay)

  /// Epochs between recounts: 1 recounts every epoch, k > 1 lets the network
  /// run on a stale estimate for k-1 epochs. Epoch 1 always recounts.
  std::uint32_t recountEvery = 1;

  // --- per-epoch event intensities (per live member, Poisson) ---------------
  double joinRate = 0.0;    ///< expected honest joins per live member per epoch
  double leaveRate = 0.0;   ///< expected honest departures per live member per epoch
  double rewireRate = 0.0;  ///< expected degree-preserving edge swaps per member

  // --- FlashCrowd ------------------------------------------------------------
  std::uint32_t flashEpoch = 2;  ///< epoch of the join spike (epoch 1 has no events)
  double flashFraction = 4.0;    ///< spike size as a fraction of the live membership

  // --- MassExodus ------------------------------------------------------------
  std::uint32_t exodusEpoch = 2;  ///< epoch of the departure wave
  double exodusFraction = 0.5;    ///< fraction of the live membership departing

  // --- ByzantineChurn --------------------------------------------------------
  double byzDepartRate = 0.5;   ///< fraction of Byzantine members faking departure per epoch
  double byzRejoinBoost = 1.5;  ///< fresh Byzantine identities per faked departure (>= 1
                                ///< inflates the effective budget; 1.0 = pure whitewashing)

  /// True when the scenario should route through the EpochRunner. A default
  /// schedule is inert: every existing ScenarioSpec behaves exactly as before.
  [[nodiscard]] bool enabled() const noexcept {
    return kind != ChurnModelKind::None || epochs > 1;
  }

  // Named presets mirroring the AgreementAttackProfile constructors.
  [[nodiscard]] static ChurnSchedule none();
  [[nodiscard]] static ChurnSchedule steady(std::uint32_t epochs, double rate,
                                            std::uint32_t recountEvery = 1);
  [[nodiscard]] static ChurnSchedule flashCrowd(std::uint32_t epochs, double fraction,
                                                std::uint32_t atEpoch = 2,
                                                std::uint32_t recountEvery = 1);
  [[nodiscard]] static ChurnSchedule massExodus(std::uint32_t epochs, double fraction,
                                                std::uint32_t atEpoch = 2,
                                                std::uint32_t recountEvery = 1);
  [[nodiscard]] static ChurnSchedule byzantine(std::uint32_t epochs, double honestRate,
                                               double rejoinBoost = 1.5,
                                               std::uint32_t recountEvery = 1);
};

}  // namespace bzc
