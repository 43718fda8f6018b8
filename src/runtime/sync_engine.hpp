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
//    pre-refactor loops;
//  - the meter records honest senders only, at flush time, with
//    recordBroadcast(from, bits, degree) for broadcasts and
//    record(from, bits) for unicasts.
//
// Intra-trial sharding (DESIGN.md §10): the constructor takes a shard count S.
// Nodes are partitioned into S contiguous shards of ceil(n/S) nodes; a shard
// owns its nodes' inboxes. At S > 1 the engine owns a ThreadPool of S workers
// and a round becomes: serial emit — parallel recv over per-shard touched
// lists (a recv hook taking a ShardLane& queues sends into its shard's lane) —
// serial canonical merge (per-recv-call run lengths interleave lane sends back
// into global first-delivery order, reproducing the serial send-queue order
// exactly) — serial counting/metering pass — parallel receiver-owned scatter
// (each worker walks the canonical send order and writes only inboxes its
// shard owns, so cursors are race-free and per-inbox order matches serial).
// The invariant is the same one ExperimentRunner pins for trials: fingerprints
// are bit-identical at any shard count, and S == 1 is exactly the legacy
// serial path (same code, same object states, base RNG streams). recv hooks
// with the legacy (NodeId, Round, span) signature still run serially at any S.
//
// Provenance tags (DESIGN.md §14) ride inside Message payloads: the engine
// moves/copies payloads opaquely through the canonical merge and scatter, so
// tags like WalkToken::taintNode or BeaconFrame::forgeNode arrive at the
// receiver exactly as sent and never perturb ordering, metering, or RNG —
// blame collection costs no simulated bits and no determinism caveats.
//
// A "window" is a bounded run of rounds (phase structures like Algorithm 2's
// beacon/continue windows map onto it); `rounds == 0` means run until
// quiescence or the engine-wide cap. Protocols that charge wall-clock for a
// full window even when traffic dies early (Algorithm 2 does) top the counter
// up with skipRounds().
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/byzantine.hpp"
#include "sim/metrics.hpp"
#include "support/require.hpp"
#include "support/types.hpp"

namespace bzc {

/// Shard counts above this are clamped: the sharded path arenas tag refs with
/// a 4-bit shard index, and past ~16 shards the serial merge/count passes
/// dominate anyway (Amdahl).
inline constexpr unsigned kMaxEngineShards = 16;

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

  /// Send handle passed to shard-aware recv hooks. At S == 1 it feeds the
  /// engine's ordinary send queue (the legacy path, byte for byte); at S > 1
  /// it feeds the calling shard's private lane, so recv-phase sends need no
  /// synchronization. shard() indexes per-shard protocol state (forked RNG
  /// streams, stat counters, arena lanes).
  class ShardLane {
   public:
    void broadcast(NodeId from, Message payload, std::size_t bits) {
      sink_->push_back({from, kNoNode, std::move(payload), bits});
    }
    void unicast(NodeId from, NodeId to, Message payload, std::size_t bits) {
      sink_->push_back({from, to, std::move(payload), bits});
    }
    [[nodiscard]] unsigned shard() const noexcept { return shard_; }

   private:
    friend class SyncEngine;
    ShardLane(std::vector<PendingSend>* sink, unsigned shard) : sink_(sink), shard_(shard) {}
    std::vector<PendingSend>* sink_;
    unsigned shard_;
  };

  /// True when RecvFn has the shard-aware signature. Detected (not opted into)
  /// so the flood overload and every legacy call site stay untouched.
  template <typename RecvFn>
  static constexpr bool kShardedRecv =
      std::is_invocable_v<RecvFn&, ShardLane&, NodeId, Round, std::span<const Delivery>>;

  /// maxTotalRounds == 0 disables the engine-wide cap. shards is clamped to
  /// [1, min(kMaxEngineShards, n)]; 1 (the default) is the serial engine.
  SyncEngine(const Graph& g, const ByzantineSet& byz, std::uint64_t maxTotalRounds = 0,
             unsigned shards = 1)
      : graph_(g),
        byz_(byz),
        maxTotalRounds_(maxTotalRounds == 0 ? ~0ULL : maxTotalRounds),
        meter_(g.numNodes()),
        inboxCount_(g.numNodes(), 0),
        inboxStart_(g.numNodes(), 0),
        inboxCursor_(g.numNodes(), 0),
        shards_(clampShards(shards, g.numNodes())) {
    BZC_REQUIRE(byz.numNodes() == g.numNodes(), "byzantine set size mismatch");
    if (shards_ > 1) {
      chunk_ = static_cast<NodeId>((g.numNodes() + shards_ - 1) / shards_);
      lanes_.resize(shards_);
      perShardTouched_.resize(shards_);
      runCursor_.assign(shards_, 0);
      sendCursor_.assign(shards_, 0);
      pool_ = std::make_unique<ThreadPool>(shards_);
    }
  }

  // --- sharding -------------------------------------------------------------
  [[nodiscard]] unsigned shardCount() const noexcept { return shards_; }

  /// Owning shard of node v (contiguous partition: v / ceil(n/S)).
  [[nodiscard]] unsigned shardOf(NodeId v) const noexcept {
    return shards_ > 1 ? static_cast<unsigned>(v / chunk_) : 0u;
  }

  /// Runs fn(shard, loNode, hiNode) over every shard's node range — on the
  /// engine's pool at S > 1, inline at S == 1. For protocol phases that scan
  /// all nodes with shard-owned writes (e.g. the beacon decision loop); it
  /// hands out node ranges only, never send lanes.
  template <typename Fn>
  void forEachShard(Fn&& fn) {
    if (shards_ == 1) {
      fn(std::size_t{0}, NodeId{0}, graph_.numNodes());
      return;
    }
    pool_->parallelForChunked(shards_, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) fn(s, shardLo(s), shardHi(s));
    });
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
  void clearPending() noexcept {
    sendQueue_.clear();
    if (shards_ > 1) {
      for (Lane& lane : lanes_) {
        lane.sends.clear();
        lane.runLengths.clear();
      }
      flushOrder_.clear();
    }
  }
  [[nodiscard]] bool hasPending() const noexcept {
    return !sendQueue_.empty() || !flushOrder_.empty();
  }

  /// Inbox of node v for the current round (valid inside recv/end hooks).
  [[nodiscard]] std::span<const Delivery> inboxOf(NodeId v) const {
    if (inboxCount_[v] == 0) return {};
    return {inboxArena_.data() + inboxStart_[v], inboxCount_[v]};
  }

  // --- the round loop -------------------------------------------------------
  // Per round: cap check; advance the counter; emit(w); flush queued sends
  // into inboxes (metering honest senders); stop as Quiesced when nothing
  // moved; recv(v, w, inbox) for each touched v in first-delivery order
  // (shard-parallel when the hook takes a ShardLane& and S > 1); end(w) —
  // return false to stop; clear inboxes.
  template <typename EmitFn, typename RecvFn, typename EndFn>
  WindowResult runWindow(std::uint32_t rounds, EmitFn&& emit, RecvFn&& recv, EndFn&& end,
                         IdlePolicy idle = IdlePolicy::StopWhenIdle) {
    WindowResult res;
    // Probe target captured once per window; tracing toggles between windows,
    // never inside one. Null keeps every probe below a dead branch — the
    // round loop reads no clock and builds no record (the "null sink" path).
    obs::TrialTrace* const tr = obs::currentTrace();
    trace_ = tr;
    // Whole-window span (phase-time attribution in tools/metrics_report.py):
    // emitted at every exit so span counts per trial stay deterministic.
    const std::int64_t winT0 = tr != nullptr ? obs::traceClockNs() : 0;
    for (std::uint32_t w = 1; rounds == 0 || w <= rounds; ++w) {
      if (round_ >= maxTotalRounds_) {
        res.status = WindowStatus::Capped;
        if (tr != nullptr) tr->span("engine.window", winT0, round_);
        trace_ = nullptr;
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
        traceRecvNs_ = traceMergeNs_ = traceScatterNs_ = 0;
      }
      emit(static_cast<Round>(w));
      bool anyTraffic;
      if (shards_ > 1) {
        if (tr != nullptr) {
          rd.sends = static_cast<std::uint32_t>(flushOrder_.size() + sendQueue_.size());
        }
        anyTraffic = shardedFlush();
      } else {
        flushing_.clear();
        flushing_.swap(sendQueue_);  // sends queued from hooks target the next round
        if (tr != nullptr) {
          rd.sends = static_cast<std::uint32_t>(flushing_.size());
          const std::int64_t t0 = obs::traceClockNs();
          flush();
          traceScatterNs_ = obs::traceClockNs() - t0;  // serial: whole flush
        } else {
          flush();
        }
        anyTraffic = !flushing_.empty();
      }
      if (tr != nullptr) {
        rd.round = round_;
        rd.shards = static_cast<std::uint8_t>(shards_);
        rd.touched = static_cast<std::uint32_t>(touched_.size());
        rd.messages = meter_.totalMessages() - msgs0;
        rd.bits = meter_.totalBits() - bits0;
      }
      if (!anyTraffic && idle == IdlePolicy::StopWhenIdle) {
        res.status = WindowStatus::Quiesced;
        if (tr != nullptr) {
          rd.idle = 1;
          rd.recvNs = traceRecvNs_;
          rd.mergeNs = traceMergeNs_;
          rd.scatterNs = traceScatterNs_;
          tr->round(rd);
          tr->span("engine.window", winT0, round_);
        }
        trace_ = nullptr;
        return res;
      }
      if constexpr (kShardedRecv<RecvFn>) {
        if (shards_ > 1) {
          runShardedRecv(static_cast<Round>(w), recv);
          if (tr != nullptr) {
            for (unsigned s = 0; s < shards_ && s < obs::kTraceMaxShards; ++s) {
              rd.laneSends[s] = static_cast<std::uint32_t>(lanes_[s].sends.size());
            }
          }
        } else {
          ShardLane lane(&sendQueue_, 0);  // legacy queue: serial order as-is
          const std::int64_t t0 = tr != nullptr ? obs::traceClockNs() : 0;
          for (NodeId v : touched_) {
            recv(lane, v, static_cast<Round>(w), inboxOf(v));
          }
          if (tr != nullptr) traceRecvNs_ = obs::traceClockNs() - t0;
        }
      } else {
        // Legacy hook signature: always serial, even at S > 1 (its sends go
        // through broadcast()/unicast() into sendQueue_, preserving order).
        const std::int64_t t0 = tr != nullptr ? obs::traceClockNs() : 0;
        for (NodeId v : touched_) {
          recv(v, static_cast<Round>(w), inboxOf(v));
        }
        if (tr != nullptr) traceRecvNs_ = obs::traceClockNs() - t0;
      }
      const bool keep = end(static_cast<Round>(w));
      if (tr != nullptr) {
        rd.recvNs = traceRecvNs_;
        rd.mergeNs = traceMergeNs_;
        rd.scatterNs = traceScatterNs_;
        tr->round(rd);
      }
      for (NodeId v : touched_) inboxCount_[v] = 0;
      touched_.clear();
      if (shards_ > 1) {
        for (std::vector<NodeId>& t : perShardTouched_) t.clear();
      }
      if (!keep) {
        res.status = WindowStatus::Stopped;
        if (tr != nullptr) tr->span("engine.window", winT0, round_);
        trace_ = nullptr;
        return res;
      }
    }
    res.status = WindowStatus::Completed;
    if (tr != nullptr) tr->span("engine.window", winT0, round_);
    trace_ = nullptr;
    return res;
  }

  /// Flood-style window: traffic seeded before the call, forwarded from recv.
  template <typename RecvFn>
  WindowResult runWindow(std::uint32_t rounds, RecvFn&& recv) {
    return runWindow(rounds, NoEmit{}, std::forward<RecvFn>(recv), NoEnd{});
  }

 private:
  struct Lane {
    std::vector<PendingSend> sends;
    std::vector<std::uint32_t> runLengths;  ///< sends per recv call, in perShardTouched_ order
  };

  [[nodiscard]] static unsigned clampShards(unsigned s, NodeId n) noexcept {
    if (s == 0) s = 1;
    if (s > kMaxEngineShards) s = kMaxEngineShards;
    if (n > 0 && s > static_cast<unsigned>(n)) s = static_cast<unsigned>(n);
    return s;
  }
  [[nodiscard]] NodeId shardLo(std::size_t s) const noexcept {
    return std::min<NodeId>(graph_.numNodes(), static_cast<NodeId>(s) * chunk_);
  }
  [[nodiscard]] NodeId shardHi(std::size_t s) const noexcept {
    return std::min<NodeId>(graph_.numNodes(), shardLo(s) + chunk_);
  }

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

  // Shard-parallel recv: each worker serves its shard's touched nodes (global
  // first-delivery order restricted to the shard preserves relative order) and
  // records, per recv call, how many sends the hook queued (a run length).
  // The serial merge then walks the *global* touched_ list, consuming each
  // node's run from its shard's lane — reproducing the exact send order the
  // serial engine would have built, at any shard count.
  template <typename RecvFn>
  void runShardedRecv(Round w, RecvFn& recv) {
    std::int64_t t0 = trace_ != nullptr ? obs::traceClockNs() : 0;
    pool_->parallelForChunked(shards_, [&](std::size_t cLo, std::size_t cHi) {
      for (std::size_t s = cLo; s < cHi; ++s) {
        Lane& lane = lanes_[s];
        ShardLane handle(&lane.sends, static_cast<unsigned>(s));
        std::size_t mark = lane.sends.size();
        for (NodeId v : perShardTouched_[s]) {
          recv(handle, v, w, inboxOf(v));
          lane.runLengths.push_back(static_cast<std::uint32_t>(lane.sends.size() - mark));
          mark = lane.sends.size();
        }
      }
    });
    if (trace_ != nullptr) {
      const std::int64_t t1 = obs::traceClockNs();
      traceRecvNs_ += t1 - t0;
      t0 = t1;
    }
    std::fill(runCursor_.begin(), runCursor_.end(), 0);
    std::fill(sendCursor_.begin(), sendCursor_.end(), 0);
    for (NodeId v : touched_) {
      const unsigned s = shardOf(v);
      const std::uint32_t len = lanes_[s].runLengths[runCursor_[s]++];
      for (std::uint32_t k = 0; k < len; ++k) {
        flushOrder_.push_back(&lanes_[s].sends[sendCursor_[s]++]);
      }
    }
    if (trace_ != nullptr) traceMergeNs_ += obs::traceClockNs() - t0;
    // Lane storage stays live (flushOrder_ points into it) until the next
    // shardedFlush consumes it; nothing appends to lanes outside recv, so the
    // pointers cannot be invalidated by reallocation in between.
  }

  // Sharded flush. Canonical order = recv-phase lane sends (already merged
  // into flushOrder_) followed by serial-context sends (end/emit/seed, from
  // sendQueue_) — exactly the serial engine's FIFO. Pass 1 counts inboxes,
  // builds touched lists and meters honest senders serially in that order
  // (serial metering here subsumes the per-shard meter reduction: same sums,
  // same per-sender attribution). Pass 3 scatters receiver-owned in parallel:
  // every worker walks the full canonical order but writes only inboxes its
  // shard owns, so inboxCursor_ entries are single-writer and each inbox fills
  // in canonical order — bit-identical to serial.
  bool shardedFlush() {
    if (!sendQueue_.empty()) {
      flushOrder_.reserve(flushOrder_.size() + sendQueue_.size());
      for (PendingSend& p : sendQueue_) flushOrder_.push_back(&p);
    }
    if (flushOrder_.empty()) return false;
    std::int64_t t0 = trace_ != nullptr ? obs::traceClockNs() : 0;
    for (const PendingSend* p : flushOrder_) {
      if (p->to == kNoNode) {
        if (!byz_.contains(p->from)) {
          meter_.recordBroadcast(p->from, p->bits, graph_.degree(p->from));
        }
        for (NodeId v : graph_.neighbors(p->from)) {
          if (inboxCount_[v]++ == 0) {
            touched_.push_back(v);
            perShardTouched_[shardOf(v)].push_back(v);
          }
        }
      } else {
        if (!byz_.contains(p->from)) meter_.record(p->from, p->bits);
        if (inboxCount_[p->to]++ == 0) {
          touched_.push_back(p->to);
          perShardTouched_[shardOf(p->to)].push_back(p->to);
        }
      }
    }
    layoutInboxes();
    if (trace_ != nullptr) {
      // The serial counting/metering pass belongs with the canonical merge
      // (both are the Amdahl-serial fraction); the pool pass below is scatter.
      const std::int64_t t1 = obs::traceClockNs();
      traceMergeNs_ += t1 - t0;
      t0 = t1;
    }
    pool_->parallelForChunked(shards_, [&](std::size_t cLo, std::size_t cHi) {
      // A chunk of contiguous shards owns one contiguous node range.
      const NodeId lo = shardLo(cLo);
      const NodeId hi = shardHi(cHi - 1);
      for (PendingSend* p : flushOrder_) {
        if (p->to == kNoNode) {
          // Broadcasts copy into every owned slot: the move-into-last trick of
          // the serial flush would race here (workers on other chunks read the
          // same payload concurrently).
          for (NodeId v : graph_.neighbors(p->from)) {
            if (v >= lo && v < hi) {
              inboxArena_[inboxCursor_[v]++] = {p->from, Message(p->payload)};
            }
          }
        } else if (p->to >= lo && p->to < hi) {
          // Unicast: single receiver, single owner — safe to move.
          inboxArena_[inboxCursor_[p->to]++] = {p->from, std::move(p->payload)};
        }
      }
    });
    if (trace_ != nullptr) traceScatterNs_ += obs::traceClockNs() - t0;
    sendQueue_.clear();
    for (Lane& lane : lanes_) {
      lane.sends.clear();
      lane.runLengths.clear();
    }
    flushOrder_.clear();
    return true;
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

  // Sharding state (allocated only at S > 1).
  unsigned shards_ = 1;
  NodeId chunk_ = 0;                        ///< shard width: ceil(n / S)
  std::unique_ptr<ThreadPool> pool_;        ///< S workers, owned by the engine
  std::vector<Lane> lanes_;                 ///< per-shard recv-phase outboxes
  std::vector<std::vector<NodeId>> perShardTouched_;
  std::vector<PendingSend*> flushOrder_;    ///< canonical send order for the next flush
  std::vector<std::size_t> runCursor_;      ///< merge: next run length per shard
  std::vector<std::size_t> sendCursor_;     ///< merge: next lane send per shard

  // Tracing (observational only — read from committed state, never fed back).
  // trace_ is set for the duration of a runWindow call so the sharded helpers
  // know whether to read the clock; the ns accumulators are per-round scratch.
  obs::TrialTrace* trace_ = nullptr;
  std::int64_t traceRecvNs_ = 0;
  std::int64_t traceMergeNs_ = 0;
  std::int64_t traceScatterNs_ = 0;
};

}  // namespace bzc
