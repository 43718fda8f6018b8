#include "counting/beacon/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "adversary/beacon/strategies.hpp"
#include "counting/beacon/blacklist.hpp"
#include "counting/beacon/path.hpp"
#include "runtime/sync_engine.hpp"
#include "support/require.hpp"

namespace bzc {

namespace {

// Message framing costs (bits) for the CONGEST accounting of Theorem 2.
constexpr std::size_t kHeaderBits = 16;
constexpr std::size_t kContinueBits = 16;

// The wire payload is the adversary-visible BeaconFrame (origin + path *as
// sent*; the receiver appends the sender's ID), so the protocol and the
// strategies in src/adversary/beacon/ share one message representation.
using Engine = SyncEngine<BeaconFrame>;

/// Bits of a beacon message carrying `pathLen` IDs plus the origin ID.
[[nodiscard]] std::size_t beaconBits(std::uint32_t pathLen) {
  return kHeaderBits + IdSpace::bitsPerId() * (static_cast<std::size_t>(pathLen) + 1);
}

/// Line 21 check for the received message ⟨beacon, o, Q⟩ from `senderPub`:
/// S = all but the last `suffix` entries of Q' = Q + [sender] must avoid BL.
[[nodiscard]] bool pathAcceptable(const BlacklistSet& bl,
                                  const BeaconPathArena& arena, const BeaconFrame& beacon,
                                  PublicId senderPub, std::uint32_t suffix) {
  if (bl.empty()) return true;
  if (suffix == 0 && bl.contains(senderPub)) return false;
  const std::uint32_t effectiveSuffix = suffix > 0 ? suffix - 1 : 0;
  return arena.walkPrefix(beacon.path, effectiveSuffix,
                          [&](PublicId id) { return !bl.contains(id); });
}

/// Per-run mutable state, grouped so the step policies stay readable.
/// Messaging state (inboxes, pending sends) lives in the SyncEngine.
struct RunState {
  explicit RunState(NodeId n)
      : participating(n, 1),
        decided(n, 0),
        blacklist(n),
        hasShortest(n, 0),
        ownBeacon(n, 0),
        shortest(n),
        receivedContinue(n, 0) {}

  // Persistent across iterations.
  std::vector<char> participating;
  std::vector<char> decided;
  std::vector<BlacklistSet> blacklist;  // reset each phase

  // Per-iteration state.
  std::vector<char> hasShortest;
  std::vector<char> ownBeacon;  // shortestPath == (u) itself (Line 7)
  std::vector<BeaconFrame> shortest;
  std::vector<char> receivedContinue;
};

}  // namespace

BeaconOutcome runBeaconCounting(const Graph& g, const ByzantineSet& byz,
                                BeaconAdversary& adversary, const BeaconParams& params,
                                const BeaconLimits& limits, Rng& rng, Coalition* coalition) {
  params.validate();
  const NodeId n = g.numNodes();
  BZC_REQUIRE(n >= 2, "network too small");
  BZC_REQUIRE(byz.numNodes() == n, "byzantine set size mismatch");

  const std::uint32_t maxPhase =
      limits.maxPhase > 0
          ? limits.maxPhase
          : static_cast<std::uint32_t>(std::ceil(2.5 * std::log(static_cast<double>(n)))) + 6;
  const std::uint64_t maxRounds = limits.maxTotalRounds > 0 ? limits.maxTotalRounds : 20'000;

  Rng idRng = rng.fork(0x1d5);
  const IdSpace ids(n, idRng);
  Rng actRng = rng.fork(0xac7);
  Rng fakeRng = rng.fork(0xfa4e);

  BeaconOutcome out;
  out.result.decisions.assign(n, {});
  out.stats.decidedPhase.assign(n, 0);

  RunState st(n);
  Engine engine(g, byz, maxRounds);
  BeaconPathArena arena;

  std::size_t undecidedHonest = n - byz.count();

  // Adversary wiring: one strategy instance drives every Byzantine node. The
  // Coalition blackboard is trial-shared when the caller passes one — the
  // pipeline hands the same object to the agreement stage so both stages
  // collude (DESIGN.md §9).
  Coalition localCoalition;
  Coalition& board = coalition != nullptr ? *coalition : localCoalition;

  // Trace probe target (DESIGN.md §12), captured once for the run; null means
  // tracing is off and every probe below is a dead branch. All emission
  // happens at serial points between windows, reading committed state only —
  // never an RNG stream — so traced and untraced runs are bit-identical.
  // (The BeaconObservables local below shadows the obs namespace; probes go
  // through this pointer.)
  bzc::obs::TrialTrace* const trace = bzc::obs::currentTrace();

  BeaconObservables obs;

  // Adversary randomness. Serial slots (activation forging, continue spam —
  // they interleave draws with honest activation draws) use the base
  // fakeRng. Recv hooks draw from per-receiver streams instead: each
  // Byzantine node refreshes its own fork per (phase, iteration) and consumes
  // it in its inbox order, so a recv-drawing strategy (tamperer, grafter,
  // full) sees a pure function of (phase, iteration, node, delivery order).
  const Rng recvBase = fakeRng.fork(0xbe4c);  // fixed recv-stream tag
  std::vector<Rng> recvRng(n);
  // Blame-graph edges (DESIGN.md §14) go straight to out.blame. Collection is
  // unconditional and reads committed state only, so goldens are identical
  // attribution on/off.
  // Line 32 insertions off honest-authored shortest paths: the collateral
  // the blame graph cannot pin on a cause; reconciled as
  // attributed + untainted == blacklistInsertions.
  std::uint64_t untaintedInsertions = 0;
  const auto ctxAt = [&](NodeId at, Round r, Rng& fake) {
    return BeaconContext{at, r, g, arena, board, fake, out.stats.adversary, obs};
  };

  bool capped = false;
  for (std::uint32_t phase = params.firstPhase; phase <= maxPhase && !capped;
       phase = params.nextPhase(phase)) {
    out.stats.lastPhase = phase;
    // Line 2: reset the phase blacklist (kept only where it is consulted:
    // undecided honest nodes; decided re-entrants never read theirs).
    for (NodeId u = 0; u < n; ++u) {
      if (!byz.contains(u) && !st.decided[u]) st.blacklist[u].clear();
    }
    const std::uint32_t iterations = params.iterationsForPhase(phase);
    const std::uint32_t beaconWindow = phase + 2;
    const std::uint32_t continueWindow = phase + 3;
    const std::uint32_t suffix = std::max<std::uint32_t>(
        1, params.blacklistSuffix(phase, std::max<NodeId>(2, g.maxDegree())));

    bool anyParticipant = false;
    for (NodeId u = 0; u < n; ++u) {
      if (!byz.contains(u) && st.participating[u]) {
        anyParticipant = true;
        break;
      }
    }
    if (!anyParticipant) {
      out.stats.quiesced = true;
      break;
    }

    for (std::uint32_t iter = 1; iter <= iterations && !capped; ++iter) {
      if (engine.wouldExceed(BeaconParams::roundsPerIteration(phase))) {
        capped = true;
        break;
      }
      arena.clear();
      engine.clearPending();
      std::fill(st.hasShortest.begin(), st.hasShortest.end(), 0);
      std::fill(st.ownBeacon.begin(), st.ownBeacon.end(), 0);

      // Observables refresh once per iteration, before any hook fires, so
      // every strategy decision reads committed run state only.
      obs.phase = phase;
      obs.iteration = iter;
      obs.undecidedHonest = undecidedHonest;
      obs.blacklistInsertions = out.stats.blacklistInsertions;
      obs.honestBeacons = out.stats.beaconsGenerated;

      // Fresh per-receiver streams for this (phase, iteration). Only
      // Byzantine nodes fire recv hooks, so only they need streams.
      const Rng iterFake =
          recvBase.fork((static_cast<std::uint64_t>(phase) << 32) | iter);
      for (NodeId b : byz.members()) recvRng[b] = iterFake.fork(b);

      // --- Line 5-11: activations, queued as round-1 broadcasts. Byzantine
      // --- nodes get the iteration-boundary forge hook in the same slot. ---
      for (NodeId u = 0; u < n; ++u) {
        if (byz.contains(u)) {
          BeaconFrame forged;
          if (adversary.forgeBeacon(ctxAt(u, 0, fakeRng), forged)) {
            ++out.stats.adversary.beaconsForged;
            // Provenance stamp: every id this payload later plants in a
            // blacklist traces back to u (the tag rides honest relays — the
            // payload is copied verbatim, DESIGN.md §14).
            forged.forgeNode = u;
            out.blame.add(bzc::obs::BlameKind::BeaconForged, u, bzc::obs::kBlameNone);
            engine.broadcast(u, forged, beaconBits(forged.len));
          }
          continue;
        }
        if (!st.participating[u]) continue;
        const double p = params.activationProbability(phase, g.degree(u));
        if (actRng.bernoulli(p)) {
          engine.broadcast(u, BeaconFrame{ids.publicId(u), kNoBeaconPath, 0}, beaconBits(0));
          st.hasShortest[u] = 1;  // Line 7: shortestPath <- (u)
          st.ownBeacon[u] = 1;
          ++out.stats.beaconsGenerated;
        }
      }

      // --- Beacon window: i+2 rounds of flooding on the engine. ---
      auto beaconStep = [&](NodeId v, Round r, const Engine::Inbox& box) {
        if (byz.contains(v)) {
          if (r < beaconWindow) {
            const Engine::Delivery in = box.front();
            const BeaconTransit act = adversary.onBeaconRelay(
                ctxAt(v, r, recvRng[v]), {in.sender, ids.publicId(in.sender), in.payload});
            if (act.op == BeaconTransit::Op::Drop) {
              ++out.stats.adversary.relaysSuppressed;
              // Victim: the honest author whose beacon died here (fabricated
              // or Byzantine origins resolve to no specific victim).
              const NodeId origin = ids.lookup(in.payload.origin);
              out.blame.add(bzc::obs::BlameKind::RelaySuppressed, v,
                            origin != kNoNode && !byz.contains(origin)
                                ? origin
                                : bzc::obs::kBlameNone);
              return;
            }
            BeaconFrame fwd;
            if (act.op == BeaconTransit::Op::Replace) {
              ++out.stats.adversary.relaysTampered;
              ++out.stats.adversary.beaconsForged;
              fwd = act.replacement;
              fwd.forgeNode = v;  // provenance stamp, as at the forge boundary
              out.blame.add(bzc::obs::BlameKind::RelayTampered, v, bzc::obs::kBlameNone);
            } else {
              // Honest-looking relay: append the sender's unfakeable ID.
              fwd = in.payload;
              fwd.path = arena.append(fwd.path, ids.publicId(in.sender));
              ++fwd.len;
            }
            engine.broadcast(v, fwd, beaconBits(fwd.len));
          }
          return;
        }
        if (!st.participating[v]) return;  // exited nodes stay mute
        // Line 13-14: pick one message per the policy. Acceptability only
        // matters while the node still needs a shortestPath this iteration
        // (decided re-entrants and nodes with shortestPath set just relay),
        // which keeps the prefix walks off the fan-out fast path.
        const bool needsAccept = !st.decided[v] && !st.hasShortest[v];
        std::size_t chosen = 0;  // inbox position of the picked delivery
        bool chosenAcceptable = false;
        if (needsAccept) {
          const Engine::Delivery first = box.front();
          chosenAcceptable = pathAcceptable(st.blacklist[v], arena, first.payload,
                                            ids.publicId(first.sender), suffix);
          if (params.choice == BeaconChoicePolicy::PreferAcceptable && box.size() > 1) {
            for (std::size_t k = 1; k < box.size(); ++k) {
              const Engine::Delivery cand = box[k];
              const std::uint32_t chosenLen = box[chosen].payload.len;
              if (chosenAcceptable && chosenLen <= cand.payload.len) continue;
              const bool acc = pathAcceptable(st.blacklist[v], arena, cand.payload,
                                              ids.publicId(cand.sender), suffix);
              const bool better = (acc && !chosenAcceptable) ||
                                  (acc == chosenAcceptable && cand.payload.len < chosenLen);
              if (better) {
                chosen = k;
                chosenAcceptable = acc;
              }
            }
          }
        }
        // Line 16: the receiver appends the sender's (unfakeable) ID.
        const Engine::Delivery picked = box[chosen];
        BeaconFrame forwarded = picked.payload;
        forwarded.path = arena.append(forwarded.path, ids.publicId(picked.sender));
        ++forwarded.len;
        // Lines 20-25: update shortestPath with the first acceptable beacon.
        if (chosenAcceptable && !st.hasShortest[v]) {
          st.hasShortest[v] = 1;
          st.shortest[v] = forwarded;
        }
        // Lines 17-19: keep flooding while the window allows another hop.
        if (r < beaconWindow) engine.broadcast(v, forwarded, beaconBits(forwarded.len));
      };
      const std::int64_t beaconT0 = trace != nullptr ? bzc::obs::traceClockNs() : 0;
      const WindowResult beaconRun = engine.runWindow(beaconWindow, beaconStep);
      engine.skipRounds(beaconWindow - beaconRun.roundsRun);
      if (trace != nullptr) trace->span("beacon.beaconWindow", beaconT0, engine.round());

      // --- Lines 28-32: decisions and blacklist maintenance. ---
      const std::int64_t decideT0 = trace != nullptr ? bzc::obs::traceClockNs() : 0;
      for (NodeId u = 0; u < n; ++u) {
        if (byz.contains(u) || !st.participating[u] || st.decided[u]) continue;
        if (!st.hasShortest[u]) {
          st.decided[u] = 1;
          --undecidedHonest;
          out.stats.decidedPhase[u] = phase;
          out.result.decisions[u].decided = true;
          out.result.decisions[u].round = static_cast<Round>(engine.round());
          out.result.decisions[u].estimate = static_cast<double>(phase);
        } else if (params.blacklistEnabled && !st.ownBeacon[u]) {
          const std::uint32_t len = st.shortest[u].len;
          if (len > suffix) {
            // Provenance resolution (DESIGN.md §14): a tainted shortest
            // path blames its forger/tamperer for every id it plants —
            // honest ids are the graft/tamper damage the paper's blacklist
            // defence exists to bound; fabricated/Byzantine ids are noise
            // insertions by the same cause.
            const NodeId forger = st.shortest[u].forgeNode;
            arena.walkPrefix(st.shortest[u].path, suffix, [&](PublicId id) {
              if (st.blacklist[u].insert(id)) {
                ++out.stats.blacklistInsertions;
                if (forger != kNoNode) {
                  const NodeId src = ids.lookup(id);
                  if (src != kNoNode && !byz.contains(src))
                    out.blame.add(bzc::obs::BlameKind::BlacklistedHonestId, forger, src);
                  else
                    out.blame.add(bzc::obs::BlameKind::BlacklistedFakeId, forger,
                                  bzc::obs::kBlameNone);
                } else {
                  ++untaintedInsertions;
                }
              }
              return true;
            });
          }
        }
      }
      if (trace != nullptr) {
        trace->span("beacon.decisions", decideT0, engine.round());
        trace->counter("beacon.phase", static_cast<double>(phase), engine.round());
        trace->counter("beacon.undecidedHonest", static_cast<double>(undecidedHonest),
                       engine.round());
        trace->counter("beacon.blacklistInsertions",
                       static_cast<double>(out.stats.blacklistInsertions), engine.round());
        trace->counter("beacon.beaconsGenerated",
                       static_cast<double>(out.stats.beaconsGenerated), engine.round());
      }
      if (undecidedHonest == 0 && out.stats.roundsUntilAllDecided == 0) {
        out.stats.roundsUntilAllDecided = static_cast<Round>(engine.round());
      }

      // --- Lines 34-41: continue flood, i+3 rounds on the engine. ---
      std::fill(st.receivedContinue.begin(), st.receivedContinue.end(), 0);
      for (NodeId u = 0; u < n; ++u) {
        const bool honestSource = !byz.contains(u) && st.participating[u] && !st.decided[u] &&
                                  params.continueEnabled;
        const bool byzSource = byz.contains(u) && adversary.spamContinue(ctxAt(u, 0, fakeRng));
        if (!honestSource && !byzSource) continue;
        if (honestSource) ++out.stats.continueMessages;
        if (byzSource) {
          ++out.stats.adversary.continuesSpammed;
          out.blame.add(bzc::obs::BlameKind::ContinueSpam, u, bzc::obs::kBlameNone);
        }
        st.receivedContinue[u] = 1;  // sources need no re-entry signal
        engine.broadcast(u, BeaconFrame{}, kContinueBits);
      }
      auto continueStep = [&](NodeId v, Round r, const Engine::Inbox&) {
        if (st.receivedContinue[v]) return;
        st.receivedContinue[v] = 1;
        bool relays;
        if (byz.contains(v)) {
          relays = adversary.onContinueRelay(ctxAt(v, r, recvRng[v]));
          if (!relays && r < continueWindow) {
            ++out.stats.adversary.continuesSuppressed;
            out.blame.add(bzc::obs::BlameKind::ContinueSuppressed, v, bzc::obs::kBlameNone);
          }
        } else {
          relays = st.participating[v] != 0;
        }
        if (relays && r < continueWindow) engine.broadcast(v, BeaconFrame{}, kContinueBits);
      };
      const std::int64_t contT0 = trace != nullptr ? bzc::obs::traceClockNs() : 0;
      const WindowResult continueRun = engine.runWindow(continueWindow, continueStep);
      engine.skipRounds(continueWindow - continueRun.roundsRun);
      if (trace != nullptr) {
        trace->span("beacon.continueWindow", contT0, engine.round());
        // Adversary dispositions as running totals.
        const BeaconAdversaryStats& adv = out.stats.adversary;
        trace->counter("beacon.adversary.forged", static_cast<double>(adv.beaconsForged),
                       engine.round());
        trace->counter("beacon.adversary.suppressed",
                       static_cast<double>(adv.relaysSuppressed + adv.continuesSuppressed),
                       engine.round());
      }

      // Lines 38-44: exit or (re-)enter for the next iteration.
      bool anyHonestParticipant = false;
      for (NodeId u = 0; u < n; ++u) {
        if (byz.contains(u)) continue;
        st.participating[u] = (!st.decided[u] || st.receivedContinue[u]) ? 1 : 0;
        anyHonestParticipant = anyHonestParticipant || st.participating[u];
      }
      if (!anyHonestParticipant) break;  // phase loop notices quiescence
    }
  }

  out.result.totalRounds =
      static_cast<Round>(std::min<std::uint64_t>(engine.round(), 0xffffffffu));
  out.result.hitRoundCap = capped;
  out.result.meter = engine.releaseMeter();
  out.stats.beaconsForged = out.stats.adversary.beaconsForged;
  // Reconciliation denominators (`tools/run_record.py validate`): edge sums
  // must meet these exactly — BeaconForged + RelayTampered == beaconsForged,
  // BlacklistedHonestId + BlacklistedFakeId + untainted == blacklistInsertions.
  out.blame.addTotal("beacon.beaconsForged", out.stats.adversary.beaconsForged);
  out.blame.addTotal("beacon.relaysSuppressed", out.stats.adversary.relaysSuppressed);
  out.blame.addTotal("beacon.relaysTampered", out.stats.adversary.relaysTampered);
  out.blame.addTotal("beacon.continuesSuppressed", out.stats.adversary.continuesSuppressed);
  out.blame.addTotal("beacon.continuesSpammed", out.stats.adversary.continuesSpammed);
  out.blame.addTotal("beacon.blacklistInsertions", out.stats.blacklistInsertions);
  out.blame.addTotal("beacon.untaintedInsertions", untaintedInsertions);
  if (!out.stats.quiesced) {
    // The phase loop may have ended by cap/maxPhase; re-check quiescence.
    bool anyParticipant = false;
    for (NodeId u = 0; u < n; ++u) {
      if (!byz.contains(u) && st.participating[u]) {
        anyParticipant = true;
        break;
      }
    }
    out.stats.quiesced = !anyParticipant;
  }
  return out;
}

BeaconOutcome runBeaconCounting(const Graph& g, const ByzantineSet& byz,
                                const BeaconAdversaryProfile& attack, const BeaconParams& params,
                                const BeaconLimits& limits, Rng& rng) {
  const std::unique_ptr<BeaconAdversary> adversary = makeBeaconAdversary(attack, g, byz);
  return runBeaconCounting(g, byz, *adversary, params, limits, rng);
}

}  // namespace bzc
