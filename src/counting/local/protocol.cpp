#include "counting/local/protocol.hpp"

#include <algorithm>
#include <cmath>

#include "graph/bfs.hpp"
#include "runtime/sync_engine.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/ids.hpp"
#include "support/require.hpp"

namespace bzc {

namespace {
constexpr std::size_t kHeartbeatBits = 16;

std::size_t recordBits(const RecordPool& pool, RecordIdx r) {
  // One ID for the subject plus one per incident edge.
  return IdSpace::bitsPerId() * (1 + pool.degree(r));
}

/// One round's broadcast from a node: a slice of the sender's integration log
/// (the records it learned last round) plus any adversarial fabrications.
/// Receivers read the slice during the end-of-round hook, while every view
/// appends to its own log, so no log's storage may move inside a parallel
/// pass: the pass reserves each live log before it starts and receivers read
/// through the storage pointers noted then, never through `log` itself. The
/// `views` vector never grows after set-up. A message without a log has an
/// empty slice.
struct DeltaMsg {
  const std::vector<RecordIdx>* log = nullptr;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  const std::vector<RecordIdx>* extra = nullptr;
};

using Engine = SyncEngine<DeltaMsg>;

}  // namespace

LocalOutcome runLocalCounting(const Graph& g, const ByzantineSet& byz, LocalAdversary& adversary,
                              const LocalParams& params, Rng& rng, NodeId victim) {
  const NodeId n = g.numNodes();
  BZC_REQUIRE(n >= 2, "network too small");
  BZC_REQUIRE(byz.numNodes() == n, "byzantine set size mismatch");

  const std::uint32_t maxDegree = params.maxDegree > 0 ? params.maxDegree : g.maxDegree();
  const Round cap = params.maxRounds > 0
                        ? params.maxRounds
                        : static_cast<Round>(4.0 * std::log2(static_cast<double>(n))) + 48;

  Rng idRng = rng.fork(0x1d5);
  const IdSpace ids(n, idRng);
  RecordPool pool(g, ids);
  Rng atkRng = rng.fork(0xa77);
  LocalAttackContext ctx{g, byz, ids, pool, atkRng, victim};
  adversary.prepare(ctx);

  LocalOutcome out;
  out.result.decisions.assign(n, {});
  out.stats.reason.assign(n, LocalDecideReason::Undecided);
  out.stats.distToByz = byz.distanceToByzantine(g);

  // Every node keeps a view: honest nodes for the protocol, Byzantine nodes
  // (when the strategy relays) for dedup-forwarding of honest traffic.
  std::vector<LocalView> views;
  views.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    views.emplace_back(&pool, maxDegree);
    views.back().installSelf(static_cast<RecordIdx>(u));
  }
  std::vector<ExpansionMonitor> monitors;
  monitors.reserve(n);
  Rng monRng = rng.fork(0x57ec);
  for (NodeId u = 0; u < n; ++u) monitors.emplace_back(params.checks, monRng.next());

  std::vector<char> decided(n, 0);
  std::size_t undecidedHonest = n - byz.count();

  auto decide = [&](NodeId u, Round r, LocalDecideReason why) {
    decided[u] = 1;
    --undecidedHonest;
    out.stats.reason[u] = why;
    out.result.decisions[u].decided = true;
    out.result.decisions[u].round = r;
    out.result.decisions[u].estimate = static_cast<double>(r);
    switch (why) {
      case LocalDecideReason::Inconsistency: ++out.stats.inconsistencyDecisions; break;
      case LocalDecideReason::MuteNeighbor: ++out.stats.muteDecisions; break;
      case LocalDecideReason::BallGrowth: ++out.stats.ballGrowthDecisions; break;
      case LocalDecideReason::SparseCut: ++out.stats.sparseCutDecisions; break;
      case LocalDecideReason::Undecided: break;
    }
  };

  Engine engine(g, byz, cap);
  std::vector<std::vector<RecordIdx>> extras(n);  // adversarial fabrications, per round

  // --- Emission: every undecided node broadcasts last round's delta. ---
  auto emit = [&](Round) {
    const auto round = static_cast<Round>(engine.round());
    for (NodeId u = 0; u < n; ++u) {
      if (byz.contains(u)) {
        auto emission = adversary.emit(u, round);
        extras[u] = std::move(emission.records);
        if (emission.mute) continue;
        DeltaMsg m;
        m.extra = &extras[u];
        if (adversary.relaysHonest()) {
          m.log = &views[u].integrationLog();
          m.begin = static_cast<std::uint32_t>(views[u].roundMark(round - 1));
          m.end = static_cast<std::uint32_t>(views[u].roundMark(round));
        }
        engine.broadcast(u, m, 0);  // Byzantine traffic is never metered
        continue;
      }
      if (decided[u]) continue;  // terminated nodes are mute (this is what Line 5 sees)
      DeltaMsg m;
      m.log = &views[u].integrationLog();
      m.begin = static_cast<std::uint32_t>(views[u].roundMark(round - 1));
      m.end = static_cast<std::uint32_t>(views[u].roundMark(round));
      std::size_t bits = kHeartbeatBits;
      const auto& log = *m.log;
      for (std::uint32_t k = m.begin; k < m.end; ++k) bits += recordBits(pool, log[k]);
      engine.broadcast(u, m, bits);
    }
  };

  // --- Integration + checks, run once per round over all nodes. ---
  // Both passes are per-node pure work (DESIGN.md §2): node u reads its own
  // inbox, its senders' delta slices and its own view and monitor, and writes
  // only its own view, its own monitor and pending[u]. Each pass runs on the
  // trial's thread plus whichever threads of the trial's pool are idle when
  // it starts (trialPool(), DESIGN.md §5); the decisions are applied
  // afterwards, serially and in node order, so the outcome is bit-identical
  // on any schedule. On the inline pool, or when every thread is busy, a
  // pass is serial.
  ThreadPool& workers = trialPool();
  // Each sender's log storage as of the start of a parallel integration
  // pass, indexed by node: receivers read slices through these, never
  // through another node's vector, which its owner appends to meanwhile.
  // Empty while the pass is serial.
  std::vector<const RecordIdx*> logData;
  const bool relays = adversary.relaysHonest();
  // Byzantine nodes keep a view only when their strategy relays.
  auto keepsView = [&](NodeId u) { return !decided[u] && (relays || !byz.contains(u)); };
  std::vector<LocalDecideReason> pending(n, LocalDecideReason::Undecided);

  // Line 5 mute check, then integration of every delivered record; returns
  // the decision it forces (Undecided when none).
  auto integrateNode = [&](NodeId u, Round round) {
    if (!keepsView(u)) return LocalDecideReason::Undecided;
    const bool isByz = byz.contains(u);
    const Engine::Inbox box = engine.inboxOf(u);
    // Line 5: a mute neighbour triggers an immediate decision. Every sending
    // neighbour contributes one delivery per incident edge, so a short inbox
    // means someone stayed silent.
    if (!isByz && box.size() < g.degree(u)) return LocalDecideReason::MuteNeighbor;
    LocalView& view = views[u];
    // False when an honest node integrates anything worse than Duplicate.
    auto absorb = [&](RecordIdx rec) {
      if (view.knows(rec)) return true;
      const IntegrationVerdict v = view.integrate(rec, round);
      return isByz || v == IntegrationVerdict::Ok || v == IntegrationVerdict::Duplicate;
    };
    for (const Engine::Delivery& in : box) {
      const DeltaMsg& m = in.payload;
      if (m.begin < m.end) {
        // A serial pass reserves nothing, and a sender's log may have moved
        // since the round began, so the slice is read through the vector.
        const RecordIdx* log = logData.empty() ? m.log->data() : logData[in.sender];
        for (std::uint32_t k = m.begin; k < m.end; ++k) {
          if (!absorb(log[k])) return LocalDecideReason::Inconsistency;
        }
      }
      if (m.extra == nullptr) continue;
      for (const RecordIdx rec : *m.extra) {
        if (!absorb(rec)) return LocalDecideReason::Inconsistency;
      }
    }
    return LocalDecideReason::Undecided;
  };

  // Expansion checks (Lines 9-13).
  auto checkNode = [&](NodeId u, Round round) {
    if (byz.contains(u) || decided[u]) return LocalDecideReason::Undecided;
    switch (monitors[u].inspect(views[u], round)) {
      case ExpansionVerdict::Healthy: break;
      case ExpansionVerdict::BallGrowthViolation: return LocalDecideReason::BallGrowth;
      case ExpansionVerdict::SparseCutDetected: return LocalDecideReason::SparseCut;
    }
    return LocalDecideReason::Undecided;
  };

  auto endOfRound = [&](Round) {
    const auto round = static_cast<Round>(engine.round());
    {
      const obs::ScopedTimer span("local.integrate", round);
      // Receivers read their senders' log slices while each appends to its
      // own log, so no log may move inside a parallel pass: every live view
      // first reserves room for all it was sent, then its storage is noted.
      const unsigned helpers = workers.idleThreads();
      logData.assign(helpers > 0 ? n : 0, nullptr);
      if (helpers > 0) {
        for (NodeId u = 0; u < n; ++u) {
          if (keepsView(u)) {
            std::size_t incoming = 0;
            for (const Engine::Delivery& in : engine.inboxOf(u)) {
              const DeltaMsg& m = in.payload;
              incoming += (m.end - m.begin) + (m.extra != nullptr ? m.extra->size() : 0);
            }
            views[u].reserveLog(incoming);
          }
          logData[u] = views[u].integrationLog().data();
        }
      }
      workers.parallelForTasks(n, helpers, [&](std::size_t u) {
        pending[u] = integrateNode(static_cast<NodeId>(u), round);
      });
      for (NodeId u = 0; u < logData.size(); ++u) {
        BZC_ASSERT(views[u].integrationLog().data() == logData[u]);
      }
    }
    {
      const obs::ScopedTimer span("local.checks", round);
      workers.parallelForTasks(n, workers.idleThreads(), [&](std::size_t u) {
        if (pending[u] == LocalDecideReason::Undecided) {
          pending[u] = checkNode(static_cast<NodeId>(u), round);
        }
      });
    }
    for (NodeId u = 0; u < n; ++u) {
      if (pending[u] == LocalDecideReason::Undecided) continue;
      decide(u, round, pending[u]);
      pending[u] = LocalDecideReason::Undecided;
    }

    // Trace probes (DESIGN.md §12): emitted on the trial's thread after the
    // passes, so the per-round undecided count and decide-reason running
    // totals land on the same timeline as the engine's round records.
    if (obs::TrialTrace* trace = obs::currentTrace()) {
      trace->counter("local.undecidedHonest", static_cast<double>(undecidedHonest), round);
      trace->counter("local.decided.inconsistency",
                     static_cast<double>(out.stats.inconsistencyDecisions), round);
      trace->counter("local.decided.mute", static_cast<double>(out.stats.muteDecisions), round);
      trace->counter("local.decided.ballGrowth",
                     static_cast<double>(out.stats.ballGrowthDecisions), round);
      trace->counter("local.decided.sparseCut",
                     static_cast<double>(out.stats.sparseCutDecisions), round);
    }
    return undecidedHonest > 0;
  };

  WindowResult run{WindowStatus::Stopped, 0};
  if (undecidedHonest > 0) {
    run = engine.runWindow(0, emit, Engine::NoRecv{}, endOfRound);
    // While honest undecided nodes remain they keep broadcasting, so the
    // engine can only stop via the round cap or the all-decided hook.
    BZC_ASSERT(run.status != WindowStatus::Quiesced);
  }

  out.result.totalRounds =
      std::min<Round>(static_cast<Round>(engine.round()) + (run.status == WindowStatus::Stopped ? 1 : 0), cap);
  out.result.hitRoundCap = undecidedHonest > 0;
  out.result.meter = engine.releaseMeter();
  out.stats.undecidedAtCap = undecidedHonest;
  return out;
}

}  // namespace bzc
