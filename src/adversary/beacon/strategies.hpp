// The beacon-adversary strategy gallery.
//
// Concrete BeaconAdversary behaviours live in strategies.cpp; callers go
// through the profile-driven factory (the declarative path) or the named
// constructors (tests that want a specific strategy object). Every fakeRng
// draw happens at a fixed call site with a fixed pattern, so each preset's
// behaviour is pinned by the beacon golden fingerprints.
#pragma once

#include <memory>

#include "adversary/beacon/beacon_adversary.hpp"
#include "adversary/beacon/profile.hpp"
#include "graph/graph.hpp"
#include "sim/byzantine.hpp"

namespace bzc {

/// Materialises one per-trial strategy instance from a profile. Strategies
/// needing per-trial precomputation (the targeted flooder's BFS field) do it
/// here, never inside the round loop.
[[nodiscard]] std::unique_ptr<BeaconAdversary> makeBeaconAdversary(
    const BeaconAdversaryProfile& profile, const Graph& g, const ByzantineSet& byz);

/// Named constructors for direct (non-declarative) use.
[[nodiscard]] std::unique_ptr<BeaconAdversary> makeNullBeaconAdversary();
[[nodiscard]] std::unique_ptr<BeaconAdversary> makeBeaconFlooderAdversary(
    std::uint32_t prefixLength);
[[nodiscard]] std::unique_ptr<BeaconAdversary> makeTargetedFlooderAdversary(
    const Graph& g, std::uint32_t victim, std::uint32_t radius, std::uint32_t prefixLength);
[[nodiscard]] std::unique_ptr<BeaconAdversary> makeBeaconTampererAdversary(
    std::uint32_t prefixLength);
[[nodiscard]] std::unique_ptr<BeaconAdversary> makeBeaconSuppressorAdversary();
[[nodiscard]] std::unique_ptr<BeaconAdversary> makeContinueSpammerAdversary();
[[nodiscard]] std::unique_ptr<BeaconAdversary> makeFullBeaconAdversary(
    std::uint32_t prefixLength);
[[nodiscard]] std::unique_ptr<BeaconAdversary> makeAdaptiveFlooderAdversary(
    std::uint64_t pressureTolerance, std::uint32_t prefixLength);
[[nodiscard]] std::unique_ptr<BeaconAdversary> makePrefixGrafterAdversary(
    std::uint32_t graftLength);

}  // namespace bzc
