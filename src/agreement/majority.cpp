#include "agreement/majority.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "adversary/strategies.hpp"
#include "runtime/sync_engine.hpp"
#include "support/require.hpp"

namespace bzc {

namespace {

// Honest message framing costs (bits). A deployed node routes answers
// statefully (it remembers which neighbour handed it each token), so the
// metered cost is header + origin ID + hop counter for outbound tokens and
// header + origin ID + the sampled bit for answers. The `path`, `slot` and
// `compromised` fields of the simulation payload are bookkeeping the real
// protocol never puts on a wire (DESIGN.md §6).
constexpr std::size_t kWalkTokenBits = 16 + 64 + 8;
constexpr std::size_t kAnswerBits = 16 + 64 + 1;

using Engine = SyncEngine<WalkToken>;

}  // namespace

AgreementOutcome runMajorityAgreement(const Graph& g, const ByzantineSet& byz,
                                      const std::vector<double>& estimates,
                                      const AgreementParams& params, Rng& rng,
                                      WalkAdversary* adversaryOverride,
                                      Coalition* sharedCoalition) {
  const NodeId n = g.numNodes();
  BZC_REQUIRE(byz.numNodes() == n, "byzantine set size mismatch");
  BZC_REQUIRE(estimates.size() == n, "estimate vector size mismatch");
  BZC_REQUIRE(params.initialOnesFraction >= 0.0 && params.initialOnesFraction <= 1.0,
              "initial fraction out of range");
  // walkLen = ceil(factor * max(1, L)) must stay >= 1: a token's first hop is
  // taken at launch, so a zero-length walk has no message-passing form.
  BZC_REQUIRE(params.walkLengthFactor > 0.0, "walk length factor must be positive");

  AgreementOutcome out;
  std::vector<std::uint8_t> value(n, 0);
  std::vector<std::uint32_t> walkLen(n, 1);
  std::vector<std::uint32_t> iters(n, 0);
  std::uint32_t maxIters = 0;

  // Inputs and per-node schedules consume the caller's stream in node order
  // (the pre-refactor draw order, so initial splits are bit-compatible).
  std::size_t ones = 0;
  std::size_t honest = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (byz.contains(u)) continue;
    ++honest;
    value[u] = rng.bernoulli(params.initialOnesFraction) ? 1 : 0;
    ones += value[u];
    const double L = std::max(1.0, estimates[u]);
    walkLen[u] = static_cast<std::uint32_t>(std::ceil(params.walkLengthFactor * L));
    iters[u] = static_cast<std::uint32_t>(std::ceil(params.iterationFactor * L));
    maxIters = std::max(maxIters, iters[u]);
  }
  out.honestCount = honest;
  out.initialMajority = (2 * ones >= honest) ? 1 : 0;

  // Every token forwards from its own forked stream, so walk trajectories are
  // a pure function of (iteration, origin, sample index) — independent of
  // delivery order and therefore reproducible under any scheduling. The
  // adversary draws from its own fork for the same reason (fork() is const:
  // neither stream perturbs the caller's sequence).
  Rng walkBase = rng.fork(0x3a1c);
  Rng advRng = rng.fork(0x5adc);
  // The streams live here, indexed by WalkToken::slot = 2 * origin + sample,
  // rather than in the payload: the token stays 24 bytes on every hop.
  std::vector<Rng> streams(2 * static_cast<std::size_t>(n));

  Engine engine(g, byz);
  PathArena arena;
  // Trial-local blackboard and profile-selected strategy unless the caller
  // injected them (mixed coalitions, cross-stage collusion — DESIGN.md §9).
  Coalition localCoalition;
  Coalition& coalition = sharedCoalition != nullptr ? *sharedCoalition : localCoalition;
  const std::unique_ptr<WalkAdversary> owned =
      adversaryOverride == nullptr ? makeWalkAdversary(params.attack, g, byz, params.victim)
                                   : nullptr;
  WalkAdversary& strategy = adversaryOverride != nullptr ? *adversaryOverride : *owned;
  std::size_t curOnes = ones;

  std::vector<std::uint32_t> tally(n, 0);
  std::vector<std::uint8_t> answersSeen(n, 0);
  std::vector<std::uint8_t> answersExpected(n, 0);

  // Per-receiver adversary streams: every node refreshes its own fork of
  // advRng at each iteration (tag order: iteration, then node) and strategy
  // hooks at node v draw only from v's stream. A node's deliveries arrive in
  // inbox order, so the whole draw sequence is a pure function of
  // (iteration, node, delivery order), independent of the order in which
  // receivers are served. Honest nodes need streams too: forgeAnswer fires
  // wherever a tainted token ends its walk.
  std::vector<Rng> recvRng(n);

  // Blame-graph edges (DESIGN.md §14) go straight to out.blame. Collection is
  // unconditional — no RNG, no control flow change — so goldens are
  // identical attribution on or off. The per-origin compromised-sample
  // records below feed the wrong-decision counterfactual: written at the
  // origin accept, read in the decision loop. At most 2 samples/node.
  std::vector<std::uint8_t> compCnt(n, 0);
  std::vector<std::uint8_t> compOnes(n, 0);
  std::vector<NodeId> compCause(2 * static_cast<std::size_t>(n), kNoNode);

  // Trace probes (DESIGN.md §12) read committed state only — traced and
  // untraced runs are bit-identical.
  obs::TrialTrace* const trace = obs::currentTrace();
  // Walk-token lifecycle marks for Chrome flow arrows (satellite of §14).
  // Gated on the flow knob — O(n) marks per iteration otherwise swamp every
  // nightly trace.
  const bool flowMarks = trace != nullptr && obs::traceFlowMarks();
  // Flow-event id linking a launch to the token's terminal mark: unique per
  // (iteration, origin, sample) as flowBase + slot = (it * n + origin) * 2 + sample.
  std::uint64_t flowBase = 0;
  const auto markEnd = [&](const WalkToken& t, Round w, bool answered) {
    if (flowMarks) {
      trace->mark(answered ? "walk.answer" : "walk.drop", static_cast<double>(flowBase + t.slot),
                  w);
    }
  };

  const auto recv = [&](NodeId v, Round w, const Engine::Inbox& box) {
    // The strategy sees the live honest split (the adaptive adversary is
    // omniscient about honest state); values only commit at window end, so
    // this is constant within an iteration.
    const auto ctxAt = [&](NodeId at) {
      return WalkContext{at,     w,         g,      arena, curOnes, honest,
                         params.victim, coalition, recvRng[at], out.adversary};
    };
    for (const Engine::Delivery& d : box) {
      WalkToken t = d.payload;  // O(1): the reverse path lives in the arena
      if (t.answering) {
        if (t.path == kNullPath) {
          // End of the recorded route: only the origin accepts the answer
          // (misrouted answers carry a foreign origin ID and are discarded).
          if (t.origin == v) {
            tally[v] += t.answer;
            ++answersSeen[v];
            ++out.answeredSamples;
            if (t.compromised) {
              ++out.compromisedSamples;
              // Blame the first Byzantine actor that touched this token, and
              // remember the sample for the wrong-decision counterfactual.
              out.blame.add(obs::BlameKind::CompromisedSample,
                            t.taintNode == kNoNode ? obs::kBlameNone : t.taintNode, v);
              compCause[2 * static_cast<std::size_t>(v) + compCnt[v]] = t.taintNode;
              compOnes[v] = static_cast<std::uint8_t>(compOnes[v] + t.answer);
              ++compCnt[v];
            }
            markEnd(t, w, true);
          } else {
            ++out.adversary.strayAnswers;
            out.blame.add(obs::BlameKind::StrayAnswer,
                          t.taintNode == kNoNode ? obs::kBlameNone : t.taintNode,
                          t.origin);
            markEnd(t, w, false);
          }
          continue;
        }
        if (byz.contains(v)) {
          const bool wasCompromised = t.compromised;
          const std::uint8_t wasAnswer = t.answer;
          const TokenAction act = strategy.onAnswerRelay(ctxAt(v), t);
          if (!wasCompromised && t.compromised && t.taintNode == kNoNode) t.taintNode = v;
          if (t.answer != wasAnswer)
            out.blame.add(obs::BlameKind::FlippedAnswer, v, t.origin);
          if (act.op == TokenAction::Op::Drop) {
            ++out.adversary.droppedAnswers;
            out.blame.add(obs::BlameKind::DroppedAnswer, v, t.origin);
            markEnd(t, w, false);
            continue;
          }
          if (act.op == TokenAction::Op::Redirect) {
            // Redirecting abandons the recorded reverse route: the token
            // arrives at the target with no path left and is accepted only
            // if the target happens to be its origin.
            BZC_ASSERT(g.hasEdge(v, act.target));
            out.blame.add(obs::BlameKind::MisroutedAnswer, v, t.origin);
            if (t.taintNode == kNoNode) t.taintNode = v;
            t.path = kNullPath;
            engine.unicast(v, act.target, std::move(t), kAnswerBits);
            continue;
          }
        }
        BZC_ASSERT(arena.node(t.path) == v);
        t.path = arena.prev(t.path);
        const NodeId next = t.path == kNullPath ? t.origin : arena.node(t.path);
        engine.unicast(v, next, std::move(t), kAnswerBits);
        continue;
      }
      if (byz.contains(v)) {
        const bool wasCompromised = t.compromised;
        const TokenAction act = strategy.onQuery(ctxAt(v), t);
        BZC_ASSERT(act.op != TokenAction::Op::Redirect);  // queries follow their walk
        if (!wasCompromised && t.compromised && t.taintNode == kNoNode) t.taintNode = v;
        if (act.op == TokenAction::Op::Drop) {
          ++out.adversary.droppedQueries;
          out.blame.add(obs::BlameKind::DroppedQuery, v, t.origin);
          markEnd(t, w, false);
          continue;
        }
      }
      if (t.hopsLeft == 0) {
        // v is the walk endpoint: answer and reverse along the recorded path.
        t.answering = true;
        if (t.compromised || byz.contains(v)) {
          // The adversary authors this answer: the token was tainted in
          // transit, or the walk ended on a Byzantine node. Forge before
          // marking — strategies distinguish targeted (tainted) tokens from
          // untargeted ones that merely ended on the adversary.
          if (t.taintNode == kNoNode) t.taintNode = v;  // untainted: the endpoint is byz
          t.answer = strategy.forgeAnswer(ctxAt(v), t);
          t.compromised = true;
          ++out.adversary.forgedAnswers;
          out.blame.add(obs::BlameKind::ForgedAnswer, t.taintNode, t.origin);
        } else {
          t.answer = value[v];
        }
        BZC_ASSERT(t.path != kNullPath && arena.node(t.path) == v);
        t.path = arena.prev(t.path);
        const NodeId next = t.path == kNullPath ? t.origin : arena.node(t.path);
        engine.unicast(v, next, std::move(t), kAnswerBits);
      } else {
        const auto nbrs = g.neighbors(v);
        BZC_ASSERT(t.slot < streams.size());
        const NodeId next = nbrs[streams[t.slot].uniform(nbrs.size())];
        --t.hopsLeft;
        t.path = arena.push(next, t.path);
        engine.unicast(v, next, std::move(t), kWalkTokenBits);
      }
    }
  };

  for (std::uint32_t it = 0; it < maxIters; ++it) {
    flowBase = static_cast<std::uint64_t>(it) * streams.size();
    std::uint32_t maxLen = 0;
    bool any = false;
    for (NodeId u = 0; u < n; ++u) {
      if (byz.contains(u) || it >= iters[u]) continue;
      any = true;
      maxLen = std::max(maxLen, walkLen[u]);
    }
    if (!any) break;
    const std::int64_t iterT0 = trace != nullptr ? obs::traceClockNs() : 0;

    std::fill(tally.begin(), tally.end(), 0);
    std::fill(answersSeen.begin(), answersSeen.end(), 0);
    std::fill(answersExpected.begin(), answersExpected.end(), 0);
    std::fill(compCnt.begin(), compCnt.end(), 0);
    std::fill(compOnes.begin(), compOnes.end(), 0);
    arena.clear();  // no token outlives its iteration window

    // Fresh per-receiver streams for this iteration (see recvRng above).
    const Rng iterAdv = advRng.fork(it);
    for (NodeId u = 0; u < n; ++u) recvRng[u] = iterAdv.fork(u);

    // Launch two sample tokens per active node; the first hop seeds round 1.
    for (NodeId u = 0; u < n; ++u) {
      if (byz.contains(u) || it >= iters[u]) continue;
      const auto nbrs = g.neighbors(u);
      for (std::uint32_t s = 0; s < 2; ++s) {
        if (nbrs.empty()) continue;  // isolated node: sample falls back to own bit
        WalkToken t;
        t.origin = u;
        t.hopsLeft = walkLen[u];
        t.slot = 2 * u + s;
        Rng& stream = streams[t.slot];
        stream =
            walkBase.fork((static_cast<std::uint64_t>(it) << 33) ^ (static_cast<std::uint64_t>(u) << 1) ^ s);
        const NodeId first = nbrs[stream.uniform(nbrs.size())];
        --t.hopsLeft;
        t.path = arena.push(first, kNullPath);
        if (flowMarks)
          trace->mark("walk.launch", static_cast<double>(flowBase + t.slot), engine.round());
        engine.unicast(u, first, std::move(t), kWalkTokenBits);
        ++answersExpected[u];
      }
    }

    // Walk out (maxLen rounds), answers back (maxLen rounds), plus the
    // update round — the window is charged in full even for short walks.
    const WindowResult res = engine.runWindow(2 * maxLen + 1, NoEmit{}, recv, NoEnd{},
                                              IdlePolicy::RunFullWindow);
    BZC_REQUIRE(res.status == WindowStatus::Completed, "agreement window cut short");
    BZC_ASSERT(!engine.hasPending());

    // Majority of {own bit, sample1, sample2}; unanswered slots (isolated
    // nodes, dropped queries, misrouted answers) fall back to the node's own
    // bit — an honest node cannot tell a lost sample from one never sent.
    std::uint64_t launched = 0;
    if (trace != nullptr) {
      for (NodeId u = 0; u < n; ++u) launched += answersExpected[u];
    }

    for (NodeId u = 0; u < n; ++u) {
      if (byz.contains(u) || it >= iters[u]) continue;
      BZC_ASSERT(answersSeen[u] <= answersExpected[u]);
      const std::uint32_t total =
          static_cast<std::uint32_t>(value[u]) * (3u - answersSeen[u]) + tally[u];
      const std::uint8_t next = total >= 2 ? 1 : 0;
      // Wrong-decision counterfactual (DESIGN.md §14): replay the majority
      // with the compromised samples removed from both tally and seen-count.
      // A differing verdict means the adversary flipped this node's decision
      // this iteration — blame every recorded tainter of the removed samples.
      if (compCnt[u] > 0) {
        const std::uint8_t cleanSeen =
            static_cast<std::uint8_t>(answersSeen[u] - compCnt[u]);
        const std::uint32_t cleanTotal =
            static_cast<std::uint32_t>(value[u]) * (3u - cleanSeen) + tally[u] - compOnes[u];
        if ((cleanTotal >= 2 ? 1 : 0) != next) {
          for (std::uint8_t k = 0; k < compCnt[u]; ++k) {
            const NodeId cause = compCause[2 * static_cast<std::size_t>(u) + k];
            out.blame.add(obs::BlameKind::WrongDecision,
                          cause == kNoNode ? obs::kBlameNone : cause, u);
          }
        }
      }
      curOnes += next;
      curOnes -= value[u];
      value[u] = next;
    }

    if (trace != nullptr) {
      trace->span("agreement.iteration", iterT0, engine.round());
      trace->counter("agreement.tokensLaunched", static_cast<double>(launched), engine.round());
      trace->counter("agreement.maxWalkLen", static_cast<double>(maxLen), engine.round());
      trace->counter("agreement.ones", static_cast<double>(curOnes), engine.round());
      trace->counter("agreement.answered", static_cast<double>(out.answeredSamples),
                     engine.round());
      trace->counter("agreement.compromised", static_cast<double>(out.compromisedSamples),
                     engine.round());
      trace->counter("agreement.adversary.forged",
                     static_cast<double>(out.adversary.forgedAnswers), engine.round());
      trace->counter("agreement.adversary.dropped",
                     static_cast<double>(out.adversary.droppedQueries +
                                         out.adversary.droppedAnswers),
                     engine.round());
    }
  }

  for (NodeId u = 0; u < n; ++u) {
    if (byz.contains(u)) continue;
    if (value[u] == out.initialMajority) ++out.agreeingWithMajority;
  }
  out.fracAgreeing = honest > 0
                         ? static_cast<double>(out.agreeingWithMajority) / static_cast<double>(honest)
                         : 0.0;

  out.totalRounds = static_cast<Round>(engine.round());
  out.adversary.coalitionHits = coalition.hits();
  // Reconciliation denominators: the AdversaryStats mirror the blame edges
  // must sum to exactly (`tools/run_record.py validate`, provenance_test).
  out.blame.addTotal("walk.droppedQueries", out.adversary.droppedQueries);
  out.blame.addTotal("walk.droppedAnswers", out.adversary.droppedAnswers);
  out.blame.addTotal("walk.flippedAnswers", out.adversary.flippedAnswers);
  out.blame.addTotal("walk.forgedAnswers", out.adversary.forgedAnswers);
  out.blame.addTotal("walk.misroutedAnswers", out.adversary.misroutedAnswers);
  out.blame.addTotal("walk.strayAnswers", out.adversary.strayAnswers);
  out.blame.addTotal("walk.answeredSamples", out.answeredSamples);
  out.blame.addTotal("walk.compromisedSamples", out.compromisedSamples);
  out.meter = engine.releaseMeter();
  out.finalValues = std::move(value);
  return out;
}

AgreementOutcome runMajorityAgreement(const Graph& g, const ByzantineSet& byz,
                                      double uniformEstimate, const AgreementParams& params,
                                      Rng& rng, WalkAdversary* adversaryOverride,
                                      Coalition* sharedCoalition) {
  return runMajorityAgreement(g, byz, std::vector<double>(g.numNodes(), uniformEstimate), params,
                              rng, adversaryOverride, sharedCoalition);
}

}  // namespace bzc
