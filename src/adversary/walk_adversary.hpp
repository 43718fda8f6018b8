// Pluggable Byzantine behaviour for walk-based protocols.
//
// The paper's resilience claims quantify over *arbitrarily behaving*
// Byzantine nodes, but the agreement stage used to realise exactly one
// behaviour — an adaptive minority answerer hardcoded in the protocol loop.
// This subsystem factors the behaviour out: the protocol's SyncEngine recv
// handler calls a WalkAdversary strategy whenever a Byzantine node holds a
// walk token (query leg, answer leg, or as the walk endpoint), and the
// strategy decides what happens to it — forward, drop, redirect, mutate the
// carried bit, or taint the token so its eventual answer is forged. Adding a
// new Byzantine behaviour is one strategy class (src/adversary/strategies.cpp)
// plus a profile constructor; no protocol edit. See DESIGN.md §7.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/token_arena.hpp"
#include "graph/graph.hpp"
#include "sim/byzantine.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace bzc {

/// One sample query in flight (the agreement protocol's message payload).
/// Outbound it hops one uniform edge per round, recording the reverse path in
/// the trial's PathArena; answering it carries the sampled bit back hop by
/// hop. Strategies receive the token by mutable reference and may rewrite the
/// protocol fields; `path`, `slot` and `compromised` are simulation
/// bookkeeping with no wire cost (DESIGN.md §6). `slot` indexes the run's
/// per-token forwarding streams and flow ids: strategies must not rewrite it.
struct WalkToken {
  NodeId origin = kNoNode;
  bool answering = false;
  bool compromised = false;    ///< adversary-controlled: the answer will be/was forged
  std::uint8_t answer = 0;     ///< valid once answering
  std::uint8_t taintSubset = 0xff;  ///< coalition subset that tainted this token
                                    ///< (0xff = none); lets a mixed coalition
                                    ///< route forgeAnswer to the subset whose
                                    ///< member did the tainting (DESIGN.md §9)
  NodeId taintNode = kNoNode;  ///< provenance: first Byzantine actor that touched
                               ///< this token (taint/flip/misroute) — stamped by
                               ///< the protocol around the adversary hooks, resolved
                               ///< into blame-graph edges at the origin (DESIGN.md §14)
  std::uint32_t hopsLeft = 0;  ///< outbound hops still to take
  PathRef path = kNullPath;    ///< reverse route, arena-pooled (O(1) token copy)
  std::uint32_t slot = 0;      ///< 2 * launching origin + sample index: this token's
                               ///< forwarding stream and (with the iteration) its
                               ///< flow id
};

/// Shared per-trial blackboard through which Byzantine nodes collude. The
/// first member that needs a lie locks the bit the whole coalition will push
/// for the rest of the trial (consistent lying beats independent re-guessing
/// once honest opinion starts to drift), and targeted samples are tallied so
/// experiments can score how much of the budget actually landed.
///
/// One trial (one pipeline, one churn recount) owns each board; nothing
/// calls it concurrently.
class Coalition {
 public:
  Coalition() = default;
  Coalition(const Coalition&) = delete;
  Coalition& operator=(const Coalition&) = delete;

  [[nodiscard]] bool hasAgreedBit() const noexcept { return agreed_; }
  [[nodiscard]] std::uint8_t agreedBit() const noexcept { return bit_; }

  /// First writer wins; later calls are ignored (the coalition stays put).
  void agreeOn(std::uint8_t bit) noexcept {
    if (agreed_) return;
    agreed_ = true;
    bit_ = bit;
  }

  void recordHit() noexcept { ++hits_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }

 private:
  bool agreed_ = false;
  std::uint8_t bit_ = 0;
  std::uint64_t hits_ = 0;
};

/// What each strategy did to the traffic it touched. Protocol-observed events
/// (drops, forges, strays) are counted by the protocol loop; strategy-internal
/// events (flips, misroutes, coalition hits) by the strategies themselves.
/// These ride ExperimentSummary extras — they are diagnostics, deliberately
/// outside fingerprint(AgreementOutcome) so the pinned goldens stay valid.
struct AdversaryStats {
  std::uint64_t droppedQueries = 0;    ///< outbound tokens silently discarded
  std::uint64_t droppedAnswers = 0;    ///< returning answers silently discarded
  std::uint64_t flippedAnswers = 0;    ///< answer bits inverted in transit
  std::uint64_t forgedAnswers = 0;     ///< answers the adversary authored at walk end
  std::uint64_t misroutedAnswers = 0;  ///< answers pushed off their reverse path
  std::uint64_t strayAnswers = 0;      ///< misrouted answers discarded on arrival
  std::uint64_t coalitionHits = 0;     ///< samples targeted via the Coalition blackboard
};

/// Everything a strategy may observe when handling a token: where it is, the
/// topology, the live honest split (the classic adaptive adversary is
/// omniscient about honest state), the scenario's victim, the coalition
/// blackboard, a private RNG stream and the stats sink.
struct WalkContext {
  NodeId node = kNoNode;  ///< node currently holding the token (Byzantine for
                          ///< the transit hooks; possibly honest for forgeAnswer)
  Round round = 0;
  const Graph& graph;
  PathArena& arena;
  std::size_t honestOnes = 0;   ///< honest nodes currently holding 1
  std::size_t honestCount = 0;  ///< honest population
  NodeId victim = 0;            ///< scenario focus node (placement victim)
  Coalition& coalition;
  Rng& rng;  ///< adversary's per-trial stream (forked off the run stream)
  AdversaryStats& stats;
};

/// The maximally disruptive reply of the classic adaptive adversary: the
/// current honest minority bit. An exact 50/50 split counts as majority 1
/// (matching the protocol's own tie-break), so the minority reply is 0.
[[nodiscard]] inline std::uint8_t honestMinorityBit(const WalkContext& ctx) noexcept {
  return (2 * ctx.honestOnes >= ctx.honestCount) ? 0 : 1;
}

/// Disposition of a token a Byzantine node just received.
struct TokenAction {
  enum class Op : std::uint8_t {
    Forward,   ///< continue the honest flow (after any in-place mutation)
    Drop,      ///< silently discard the token
    Redirect,  ///< answer leg only: abandon the recorded reverse path (the
               ///< protocol clears it) and send to `target`, which must be a
               ///< neighbour of the redirecting node; the token is accepted
               ///< on arrival only if `target` is its origin

  };
  Op op = Op::Forward;
  NodeId target = kNoNode;

  [[nodiscard]] static TokenAction forward() noexcept { return {}; }
  [[nodiscard]] static TokenAction drop() noexcept { return {Op::Drop, kNoNode}; }
  [[nodiscard]] static TokenAction redirect(NodeId to) noexcept {
    return {Op::Redirect, to};
  }
};

/// Strategy interface. One instance is created per trial (strategies may hold
/// per-trial state such as BFS distance fields); within a trial all Byzantine
/// nodes are driven by the same instance, with ctx.node naming the actor.
/// Hooks run inside the protocol's recv handler, so any RNG use must come
/// from ctx.rng to keep trials pure functions of (masterSeed, index).
class WalkAdversary {
 public:
  virtual ~WalkAdversary() = default;

  /// Byzantine ctx.node received an outbound sample query. May taint the
  /// token (set `compromised`: its eventual answer is then forged via
  /// forgeAnswer, wherever the walk ends). Redirect is not honoured on the
  /// query leg — the reverse path must record the walk actually taken.
  virtual TokenAction onQuery(const WalkContext& ctx, WalkToken& token) {
    (void)ctx;
    (void)token;
    return TokenAction::forward();
  }

  /// Byzantine ctx.node received an answer in transit to its origin. May
  /// mutate the carried bit, rewrite token.path, drop, or redirect.
  virtual TokenAction onAnswerRelay(const WalkContext& ctx, WalkToken& token) {
    (void)ctx;
    (void)token;
    return TokenAction::forward();
  }

  /// The bit an adversary-controlled token answers with. Called at the walk
  /// endpoint for every token that is tainted or ended on a Byzantine node;
  /// ctx.node is the answering node (honest when the taint happened
  /// upstream). Default: the adaptive minority reply.
  virtual std::uint8_t forgeAnswer(const WalkContext& ctx, const WalkToken& token) {
    (void)token;
    return honestMinorityBit(ctx);
  }
};

/// Coalition damage score: the fraction of honest nodes within `radius` of
/// `victim` that ended OFF the initial honest majority bit. 0 = the
/// neighbourhood agreed anyway; 1 = the coalition flipped everyone near the
/// victim (the Remark 1 outcome when Placement::Surround walls the area off).
[[nodiscard]] double coalitionScore(const Graph& g, const ByzantineSet& byz, NodeId victim,
                                    std::uint32_t radius,
                                    const std::vector<std::uint8_t>& finalValues,
                                    int initialMajority);

}  // namespace bzc
