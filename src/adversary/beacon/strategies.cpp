#include "adversary/beacon/strategies.hpp"

#include <utility>
#include <vector>

#include "graph/bfs.hpp"
#include "support/require.hpp"

namespace bzc {

BeaconFrame forgeFreshBeacon(const BeaconContext& ctx, std::uint32_t prefixLen) {
  // Draw pattern pinned by the beacon goldens: origin first, then the
  // prefix entries in path order.
  BeaconFrame forged;
  forged.origin = ctx.fakeRng.next();
  for (std::uint32_t k = 0; k < prefixLen; ++k) {
    forged.path = ctx.arena.append(forged.path, ctx.fakeRng.next());
  }
  forged.len = prefixLen;
  return forged;
}

namespace {

/// §1.3's motivating attack: a fresh forged beacon from every Byzantine node
/// in every iteration — the scenario blacklisting exists to stop.
class BeaconFlooder final : public BeaconAdversary {
 public:
  explicit BeaconFlooder(std::uint32_t prefixLength) : prefixLength_(prefixLength) {}

  bool forgeBeacon(const BeaconContext& ctx, BeaconFrame& forged) override {
    forged = forgeFreshBeacon(ctx, prefixLength_);
    return true;
  }

 private:
  std::uint32_t prefixLength_;
};

/// Concentrates the forging budget on one neighbourhood: only coalition
/// members within `radius` hops of the victim forge. Targeted forges are
/// tallied on the cross-stage blackboard, so a pipeline scenario can score
/// how much counting-stage budget actually landed near the victim.
class TargetedBeaconFlooder final : public BeaconAdversary {
 public:
  TargetedBeaconFlooder(const Graph& g, NodeId victim, std::uint32_t radius,
                        std::uint32_t prefixLength)
      : distToVictim_(bfsDistances(g, victim)), radius_(radius), prefixLength_(prefixLength) {}

  bool forgeBeacon(const BeaconContext& ctx, BeaconFrame& forged) override {
    if (distToVictim_[ctx.node] > radius_) return false;
    forged = forgeFreshBeacon(ctx, prefixLength_);
    ctx.coalition.recordHit();
    return true;
  }

 private:
  std::vector<std::uint32_t> distToVictim_;
  std::uint32_t radius_;
  std::uint32_t prefixLength_;
};

/// Lemma 11's "tampered prefix" case: relays are replaced with wholly
/// fabricated beacons, so downstream blacklists fill with IDs that never
/// recur and the tamperer's own ID (appended by *its* receivers, unfakeable)
/// eventually lands in the blacklisted prefix instead.
class BeaconTamperer final : public BeaconAdversary {
 public:
  explicit BeaconTamperer(std::uint32_t prefixLength) : prefixLength_(prefixLength) {}

  BeaconTransit onBeaconRelay(const BeaconContext& ctx, const BeaconSighting& first) override {
    (void)first;
    return BeaconTransit::replace(forgeFreshBeacon(ctx, prefixLength_));
  }

 private:
  std::uint32_t prefixLength_;
};

/// Drops all beacon and continue traffic: pushes neighbours toward *early*
/// decisions (small estimates) and starves re-entry signalling.
class BeaconSuppressor final : public BeaconAdversary {
 public:
  BeaconTransit onBeaconRelay(const BeaconContext& ctx, const BeaconSighting& first) override {
    (void)ctx;
    (void)first;
    return BeaconTransit::drop();
  }

  bool onContinueRelay(const BeaconContext& ctx) override {
    (void)ctx;
    return false;
  }
};

/// Originates continue messages forever so decided nodes never quiesce
/// (stresses the exit rule; decisions stay correct — cf. Remark 3).
class ContinueSpammer final : public BeaconAdversary {
 public:
  bool spamContinue(const BeaconContext& ctx) override {
    (void)ctx;
    return true;
  }
};

/// Flooder + tamperer + continue spam, the legacy full() bundle.
class FullBeaconAdversary final : public BeaconAdversary {
 public:
  explicit FullBeaconAdversary(std::uint32_t prefixLength) : prefixLength_(prefixLength) {}

  bool forgeBeacon(const BeaconContext& ctx, BeaconFrame& forged) override {
    forged = forgeFreshBeacon(ctx, prefixLength_);
    return true;
  }

  BeaconTransit onBeaconRelay(const BeaconContext& ctx, const BeaconSighting& first) override {
    (void)first;
    return BeaconTransit::replace(forgeFreshBeacon(ctx, prefixLength_));
  }

  bool spamContinue(const BeaconContext& ctx) override {
    (void)ctx;
    return true;
  }

 private:
  std::uint32_t prefixLength_;
};

/// Flooder that watches the defence it is up against. Blacklists reset at
/// every phase boundary (Line 2), so the coalition forges at full rate while
/// a phase is young and goes quiet for the *rest of the phase* once the
/// observed Line 32 insertion count since the phase began crosses the
/// tolerance — saving its forging for the windows where blacklists are
/// empty. With an unreachable tolerance this is bit-identical to the plain
/// flooder (same draws in the same order), which the paired tests pin.
class AdaptiveBeaconFlooder final : public BeaconAdversary {
 public:
  AdaptiveBeaconFlooder(std::uint64_t pressureTolerance, std::uint32_t prefixLength)
      : tolerance_(pressureTolerance), prefixLength_(prefixLength) {}

  bool forgeBeacon(const BeaconContext& ctx, BeaconFrame& forged) override {
    if (ctx.obs.phase != phase_) {
      // Phase boundary: blacklists were just reset, pressure restarts at 0.
      phase_ = ctx.obs.phase;
      baselineInsertions_ = ctx.obs.blacklistInsertions;
      backedOff_ = false;
    }
    if (!backedOff_ && ctx.obs.blacklistInsertions - baselineInsertions_ > tolerance_) {
      backedOff_ = true;
      ++ctx.stats.pressureBackoffs;
    }
    if (backedOff_) return false;
    forged = forgeFreshBeacon(ctx, prefixLength_);
    return true;
  }

 private:
  std::uint64_t tolerance_;
  std::uint32_t prefixLength_;
  std::uint32_t phase_ = 0;  ///< phases start at BeaconParams::firstPhase >= 1
  std::uint64_t baselineInsertions_ = 0;
  bool backedOff_ = false;
};

/// Tamperer variant: instead of a wholly fabricated path it keeps the REAL
/// received prefix, appends the sender's true ID exactly as an honest relay
/// would, and only then grafts a short fabricated tail under a fabricated
/// origin. Receivers that adopt the beacon blacklist its prefix (Line 32) —
/// which is now made of honest IDs, so the defence poisons itself instead of
/// filling with one-shot noise.
class PrefixGraftingTamperer final : public BeaconAdversary {
 public:
  explicit PrefixGraftingTamperer(std::uint32_t graftLength) : graftLength_(graftLength) {}

  BeaconTransit onBeaconRelay(const BeaconContext& ctx, const BeaconSighting& first) override {
    BeaconFrame grafted;
    grafted.origin = ctx.fakeRng.next();
    grafted.path = ctx.arena.append(first.frame.path, first.senderId);
    grafted.len = first.frame.len + 1;
    for (std::uint32_t k = 0; k < graftLength_; ++k) {
      grafted.path = ctx.arena.append(grafted.path, ctx.fakeRng.next());
      ++grafted.len;
    }
    ctx.stats.prefixGrafts += first.frame.len + 1;  // real IDs carried into the graft
    return BeaconTransit::replace(grafted);
  }

 private:
  std::uint32_t graftLength_;
};

}  // namespace

std::unique_ptr<BeaconAdversary> makeNullBeaconAdversary() {
  return std::make_unique<BeaconAdversary>();
}

std::unique_ptr<BeaconAdversary> makeBeaconFlooderAdversary(std::uint32_t prefixLength) {
  return std::make_unique<BeaconFlooder>(prefixLength);
}

std::unique_ptr<BeaconAdversary> makeTargetedFlooderAdversary(const Graph& g,
                                                              std::uint32_t victim,
                                                              std::uint32_t radius,
                                                              std::uint32_t prefixLength) {
  BZC_REQUIRE(victim != BeaconAdversaryProfile::kScenarioVictim,
              "unanchored targeted-flooder victim; name a node or resolve the profile "
              "through anchorBeaconProfile / the ScenarioSpec path");
  // Legacy semantics: the configured victim wraps into range (attack.victim % n).
  const NodeId anchor = static_cast<NodeId>(victim % g.numNodes());
  return std::make_unique<TargetedBeaconFlooder>(g, anchor, radius, prefixLength);
}

std::unique_ptr<BeaconAdversary> makeBeaconTampererAdversary(std::uint32_t prefixLength) {
  return std::make_unique<BeaconTamperer>(prefixLength);
}

std::unique_ptr<BeaconAdversary> makeBeaconSuppressorAdversary() {
  return std::make_unique<BeaconSuppressor>();
}

std::unique_ptr<BeaconAdversary> makeContinueSpammerAdversary() {
  return std::make_unique<ContinueSpammer>();
}

std::unique_ptr<BeaconAdversary> makeFullBeaconAdversary(std::uint32_t prefixLength) {
  return std::make_unique<FullBeaconAdversary>(prefixLength);
}

std::unique_ptr<BeaconAdversary> makeAdaptiveFlooderAdversary(std::uint64_t pressureTolerance,
                                                              std::uint32_t prefixLength) {
  return std::make_unique<AdaptiveBeaconFlooder>(pressureTolerance, prefixLength);
}

std::unique_ptr<BeaconAdversary> makePrefixGrafterAdversary(std::uint32_t graftLength) {
  return std::make_unique<PrefixGraftingTamperer>(graftLength);
}

std::unique_ptr<BeaconAdversary> makeBeaconAdversary(const BeaconAdversaryProfile& profile,
                                                     const Graph& g, const ByzantineSet& byz) {
  (void)byz;  // membership checks stay in the protocol; reserved for future strategies
  switch (profile.kind) {
    case BeaconAttackKind::None: return makeNullBeaconAdversary();
    case BeaconAttackKind::Flooder: return makeBeaconFlooderAdversary(profile.fakePrefixLength);
    case BeaconAttackKind::TargetedFlooder:
      return makeTargetedFlooderAdversary(g, profile.victim, profile.forgeRadius,
                                          profile.fakePrefixLength);
    case BeaconAttackKind::Tamperer: return makeBeaconTampererAdversary(profile.fakePrefixLength);
    case BeaconAttackKind::Suppressor: return makeBeaconSuppressorAdversary();
    case BeaconAttackKind::ContinueSpammer: return makeContinueSpammerAdversary();
    case BeaconAttackKind::Full: return makeFullBeaconAdversary(profile.fakePrefixLength);
    case BeaconAttackKind::AdaptiveFlooder:
      return makeAdaptiveFlooderAdversary(profile.pressureTolerance, profile.fakePrefixLength);
    case BeaconAttackKind::PrefixGrafter:
      return makePrefixGrafterAdversary(profile.graftLength);
  }
  BZC_REQUIRE(false, "unknown beacon attack kind");
  return nullptr;
}

}  // namespace bzc
