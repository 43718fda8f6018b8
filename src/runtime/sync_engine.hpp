// SyncEngine: the shared synchronous-round message-passing runtime.
//
// Every protocol in the repo (beacon counting, LOCAL counting, the three
// baselines) used to hand-roll the same plumbing: a round counter, per-node
// inbox/outbox double-buffering, quiescence detection, a safety round cap and
// MessageMeter accounting. SyncEngine owns all of it; protocols are expressed
// as policies — an `emit` hook queueing sends at the top of a round, a `recv`
// hook invoked for each touched receiver, and an `end` hook for global per-round
// work (decisions, expansion checks). See DESIGN.md §1.
//
// Determinism contract (relied on by the golden regression tests):
//  - sends flush in the exact order they were queued; a receiver's inbox is
//    therefore ordered by sender-queue position, then by the sender's
//    adjacency order (one delivery per incident edge for broadcasts);
//  - `recv` fires in first-delivery order (the order inboxes first became
//    nonempty this round), which matches the classic `touched` lists of the
//    pre-refactor loops, and its sends queue behind the round's earlier ones;
//  - the meter records honest senders only, at flush time, with
//    recordBroadcast(from, bits, degree) for broadcasts and
//    record(from, bits) for unicasts.
//
// The engine is serial: one thread runs every round of a trial. The only
// parallelism inside a trial is the runner-derived worker budget (DESIGN.md
// §5), which protocols spend on their own per-node passes between windows.
//
// Provenance tags (DESIGN.md §14) ride inside Message payloads: the engine
// moves/copies payloads opaquely through the flush, so tags like
// WalkToken::taintNode or BeaconFrame::forgeNode arrive at the receiver
// exactly as sent and never perturb ordering, metering, or RNG — blame
// collection costs no simulated bits and no determinism caveats.
//
// A "window" is a bounded run of rounds (phase structures like Algorithm 2's
// beacon/continue windows map onto it); `rounds == 0` means run until
// quiescence or the engine-wide cap. Protocols that charge wall-clock for a
// full window even when traffic dies early (Algorithm 2 does) top the counter
// up with skipRounds().
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "sim/byzantine.hpp"
#include "sim/metrics.hpp"
#include "support/require.hpp"
#include "support/types.hpp"

namespace bzc {

enum class WindowStatus {
  Completed,  ///< all requested rounds ran
  Quiesced,   ///< a round moved no messages (that empty round is counted)
  Stopped,    ///< the end-of-round hook returned false
  Capped,     ///< the engine-wide round cap was reached
};

struct WindowResult {
  WindowStatus status = WindowStatus::Completed;
  std::uint32_t roundsRun = 0;  ///< rounds counted by this window (incl. a quiescent one)
};

/// What a window does with a round that moved no messages. Flood-style
/// protocols stop (nothing can ever change again); schedule-driven ones
/// (e.g. a converge-cast whose emit hook activates one layer per round) keep
/// going because later rounds produce traffic regardless of earlier ones.
enum class IdlePolicy {
  StopWhenIdle,
  RunFullWindow,
};

/// No-op policy hooks for the runWindow slots a protocol does not use.
struct NoEmit {
  void operator()(Round) const noexcept {}
};
struct NoEnd {
  bool operator()(Round) const noexcept { return true; }
};

template <typename Message>
class SyncEngine {
 private:
  struct PendingSend {
    NodeId from;
    NodeId to;  ///< kNoNode = broadcast to all neighbors
    Message payload;
    std::size_t bits;
  };

 public:
  struct Delivery {
    NodeId sender = kNoNode;
    Message payload{};
  };
  struct NoRecv {
    void operator()(NodeId, Round, std::span<const Delivery>) const noexcept {}
  };

  /// maxTotalRounds == 0 disables the engine-wide cap.
  SyncEngine(const Graph& g, const ByzantineSet& byz, std::uint64_t maxTotalRounds = 0)
      : graph_(g),
        byz_(byz),
        maxTotalRounds_(maxTotalRounds == 0 ? ~0ULL : maxTotalRounds),
        meter_(g.numNodes()),
        inboxCount_(g.numNodes(), 0),
        inboxStart_(g.numNodes(), 0),
        inboxCursor_(g.numNodes(), 0) {
    BZC_REQUIRE(byz.numNodes() == g.numNodes(), "byzantine set size mismatch");
  }

  // --- accounting -----------------------------------------------------------
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] MessageMeter& meter() noexcept { return meter_; }
  [[nodiscard]] MessageMeter releaseMeter() noexcept { return std::move(meter_); }

  /// True when running `k` more rounds would overrun the engine-wide cap.
  [[nodiscard]] bool wouldExceed(std::uint64_t k) const noexcept {
    return round_ + k > maxTotalRounds_;
  }

  /// Advances the round counter without simulating traffic (used to charge a
  /// protocol-defined window in full when flooding quiesced early). Traced as
  /// a Mark so round accounting still reconciles: simulated rounds + skipped
  /// rounds == the engine counter (tests/obs_test.cpp pins this).
  void skipRounds(std::uint64_t k) {
    round_ += k;
    if (obs::TrialTrace* t = obs::currentTrace()) {
      t->mark("engine.skipRounds", static_cast<double>(k), round_);
    }
  }

  // --- sending (valid from emit/recv/end hooks, or before a window to seed
  // --- its first round) -----------------------------------------------------
  void broadcast(NodeId from, Message payload, std::size_t bits) {
    sendQueue_.push_back({from, kNoNode, std::move(payload), bits});
  }
  void unicast(NodeId from, NodeId to, Message payload, std::size_t bits) {
    sendQueue_.push_back({from, to, std::move(payload), bits});
  }
  void clearPending() noexcept { sendQueue_.clear(); }
  [[nodiscard]] bool hasPending() const noexcept { return !sendQueue_.empty(); }

  /// Inbox of node v for the current round (valid inside recv/end hooks).
  [[nodiscard]] std::span<const Delivery> inboxOf(NodeId v) const {
    if (inboxCount_[v] == 0) return {};
    return {inboxArena_.data() + inboxStart_[v], inboxCount_[v]};
  }

  // --- the round loop -------------------------------------------------------
  // Per round: cap check; advance the counter; emit(w); flush queued sends
  // into inboxes (metering honest senders); stop as Quiesced when nothing
  // moved; recv(v, w, inbox) for each touched v in first-delivery order (its
  // sends go through broadcast()/unicast() into the next round); end(w) —
  // return false to stop; clear inboxes.
  template <typename EmitFn, typename RecvFn, typename EndFn>
  WindowResult runWindow(std::uint32_t rounds, EmitFn&& emit, RecvFn&& recv, EndFn&& end,
                         IdlePolicy idle = IdlePolicy::StopWhenIdle) {
    WindowResult res;
    // Probe target captured once per window; tracing toggles between windows,
    // never inside one. Null keeps every probe below a dead branch — the
    // round loop reads no clock and builds no record (the "null sink" path).
    obs::TrialTrace* const tr = obs::currentTrace();
    // Whole-window span (phase-time attribution in tools/metrics_report.py):
    // emitted at every exit so span counts per trial stay deterministic.
    const std::int64_t winT0 = tr != nullptr ? obs::traceClockNs() : 0;
    for (std::uint32_t w = 1; rounds == 0 || w <= rounds; ++w) {
      if (round_ >= maxTotalRounds_) {
        res.status = WindowStatus::Capped;
        if (tr != nullptr) tr->span("engine.window", winT0, round_);
        return res;
      }
      ++round_;
      ++res.roundsRun;
      obs::RoundRecord rd;
      std::uint64_t msgs0 = 0;
      std::uint64_t bits0 = 0;
      if (tr != nullptr) {
        msgs0 = meter_.totalMessages();
        bits0 = meter_.totalBits();
      }
      emit(static_cast<Round>(w));
      flushing_.clear();
      flushing_.swap(sendQueue_);  // sends queued from hooks target the next round
      if (tr != nullptr) {
        rd.sends = static_cast<std::uint32_t>(flushing_.size());
        const std::int64_t t0 = obs::traceClockNs();
        flush();
        rd.scatterNs = obs::traceClockNs() - t0;  // the whole flush
      } else {
        flush();
      }
      const bool anyTraffic = !flushing_.empty();
      if (tr != nullptr) {
        rd.round = round_;
        rd.touched = static_cast<std::uint32_t>(touched_.size());
        rd.messages = meter_.totalMessages() - msgs0;
        rd.bits = meter_.totalBits() - bits0;
      }
      if (!anyTraffic && idle == IdlePolicy::StopWhenIdle) {
        res.status = WindowStatus::Quiesced;
        if (tr != nullptr) {
          rd.idle = 1;
          tr->round(rd);
          tr->span("engine.window", winT0, round_);
        }
        return res;
      }
      const std::int64_t recvT0 = tr != nullptr ? obs::traceClockNs() : 0;
      for (NodeId v : touched_) {
        recv(v, static_cast<Round>(w), inboxOf(v));
      }
      if (tr != nullptr) rd.recvNs = obs::traceClockNs() - recvT0;
      const bool keep = end(static_cast<Round>(w));
      if (tr != nullptr) tr->round(rd);
      for (NodeId v : touched_) inboxCount_[v] = 0;
      touched_.clear();
      if (!keep) {
        res.status = WindowStatus::Stopped;
        if (tr != nullptr) tr->span("engine.window", winT0, round_);
        return res;
      }
    }
    res.status = WindowStatus::Completed;
    if (tr != nullptr) tr->span("engine.window", winT0, round_);
    return res;
  }

  /// Flood-style window: traffic seeded before the call, forwarded from recv.
  template <typename RecvFn>
  WindowResult runWindow(std::uint32_t rounds, RecvFn&& recv) {
    return runWindow(rounds, NoEmit{}, std::forward<RecvFn>(recv), NoEnd{});
  }

 private:
  // Batched delivery: one counting pass sizes every inbox, receivers get
  // contiguous slices of a single round arena (offsets assigned in
  // first-delivery order, which keeps `touched_` — and therefore the recv
  // order the goldens pin — identical to the old one-Delivery-per-push
  // scheme), then a scatter pass writes payloads in send-queue order. At
  // token-heavy scale (n >= 64k: one unicast per live walk token per round)
  // this replaces n scattered vector headers and their growth reallocations
  // with two flat arrays and a grow-only arena; delivery order, metering
  // order and inbox contents are bit-identical (DESIGN.md §1).
  void flush() {
    for (const PendingSend& p : flushing_) {
      if (p.to == kNoNode) {
        if (!byz_.contains(p.from)) {
          meter_.recordBroadcast(p.from, p.bits, graph_.degree(p.from));
        }
        for (NodeId v : graph_.neighbors(p.from)) {
          if (inboxCount_[v]++ == 0) touched_.push_back(v);
        }
      } else {
        if (!byz_.contains(p.from)) meter_.record(p.from, p.bits);
        if (inboxCount_[p.to]++ == 0) touched_.push_back(p.to);
      }
    }
    layoutInboxes();
    for (PendingSend& p : flushing_) {
      if (p.to == kNoNode) {
        // The final delivery slot gets the payload moved, not copied: message
        // types carrying buffers (walk tokens) pay one copy per neighbor less.
        const auto nbrs = graph_.neighbors(p.from);
        for (std::size_t j = 0; j + 1 < nbrs.size(); ++j) {
          inboxArena_[inboxCursor_[nbrs[j]]++] = {p.from, Message(p.payload)};
        }
        if (!nbrs.empty()) {
          inboxArena_[inboxCursor_[nbrs.back()]++] = {p.from, std::move(p.payload)};
        }
      } else {
        // A unicast has exactly one receiver and flushing_ is discarded after
        // the flush, so the payload can move (message types carrying buffers —
        // walk tokens — ride this hot path).
        inboxArena_[inboxCursor_[p.to]++] = {p.from, std::move(p.payload)};
      }
    }
  }

  // Prefix sums over touched_ in first-delivery order: each touched node's
  // arena offset and scatter cursor; grows the arena to the round's total.
  void layoutInboxes() {
    std::uint64_t total = 0;
    for (NodeId v : touched_) {
      inboxStart_[v] = static_cast<std::uint32_t>(total);
      inboxCursor_[v] = static_cast<std::uint32_t>(total);
      total += inboxCount_[v];
    }
    BZC_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
                "a round's deliveries overflow the 32-bit inbox offsets");
    if (inboxArena_.size() < total) inboxArena_.resize(total);
  }

  const Graph& graph_;
  const ByzantineSet& byz_;
  std::uint64_t maxTotalRounds_;
  std::uint64_t round_ = 0;
  MessageMeter meter_;

  std::vector<PendingSend> sendQueue_;
  std::vector<PendingSend> flushing_;
  std::vector<Delivery> inboxArena_;        ///< one round's deliveries, receiver-contiguous
  // 32-bit bookkeeping: a round's deliveries must fit (layoutInboxes checks).
  std::vector<std::uint32_t> inboxCount_;   ///< per node; nonzero only for touched_ members
  std::vector<std::uint32_t> inboxStart_;   ///< arena offset; valid when inboxCount_ > 0
  std::vector<std::uint32_t> inboxCursor_;  ///< scatter cursor during flush()
  std::vector<NodeId> touched_;
};

}  // namespace bzc
