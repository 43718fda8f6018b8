// Tests for the runtime layer: SyncEngine round/window semantics, the thread
// pool, ExperimentRunner determinism, and the golden fingerprints pinning the
// SyncEngine migration to the pre-refactor protocol behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../bench/bench_common.hpp"
#include "churn/schedule.hpp"
#include "counting/local/attacks.hpp"
#include "extra_layouts.hpp"
#include "golden_scenarios.hpp"
#include "graph/generators.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "runtime/experiment.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/sync_engine.hpp"
#include "runtime/thread_pool.hpp"

namespace bzc {
namespace {

// ---------------------------------------------------------------------------
// Golden migration regressions. The constants were captured from the seed
// implementations (hand-rolled round loops) immediately before the SyncEngine
// migration; the migrated protocols must reproduce them bit-for-bit.
// ---------------------------------------------------------------------------

TEST(GoldenMigration, BeaconMatchesPreRefactorDecisions) {
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::none(), 0),
            0x01ad738b6673bf86ULL);
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::flooder(), 10),
            0x29553b28fa4d5ddcULL);
  // FirstSeen resolves ties by inbox position, so this one pins the engine's
  // delivery-order contract, not just the protocol logic.
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::FirstSeen,
                                      BeaconAdversaryProfile::flooder(), 10),
            0xf3b6aab96a9aed6cULL);
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::full(), 10),
            0xe7cb8414934dcdefULL);
  // The remaining presets, captured before the gallery became the only way
  // to name them.
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::tamperer(), 10),
            0x1a0ac9c1ba29d3f8ULL);
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::suppressor(), 10),
            0x95299c8341f26bfdULL);
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::continueSpammer(), 10),
            0xb974b6d5ca5538c9ULL);
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::targetedFlooder(7, 3), 10),
            0x7a928cad0a407c84ULL);
}

void expectLocalGoldens() {
  {
    auto adv = makeHonestLocalAdversary();
    EXPECT_EQ(golden::localFingerprint(*adv, Placement::Random), 0xbc818467520a5f14ULL);
  }
  {
    auto adv = makeConflictLocalAdversary();
    EXPECT_EQ(golden::localFingerprint(*adv, Placement::Random), 0xbd69b4b31ee42fceULL);
  }
  {
    auto adv = makeSilentLocalAdversary(1);
    EXPECT_EQ(golden::localFingerprint(*adv, Placement::Random), 0xa54443d8baa6aa5dULL);
  }
  {
    auto adv = makeFakeWorldLocalAdversary({});
    EXPECT_EQ(golden::localFingerprint(*adv, Placement::Surround), 0x6babc33f76dd3e65ULL);
  }
}

TEST(GoldenMigration, LocalMatchesPreRefactorDecisions) { expectLocalGoldens(); }

// Algorithm 1's end-of-round passes run on the pool of the runner the trial
// runs on; the goldens must not see it. Fake-world grows the name pool
// mid-run and relays, so its logs are the ones a careless reservation would
// let move.
TEST(GoldenMigration, LocalGoldensHoldAtAnyRunnerWidth) {
  for (const unsigned width : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "runner width " << width);
    ExperimentRunner runner(width);
    (void)runner.runCustom("local-goldens", 1, [width](std::uint32_t) {
      EXPECT_EQ(trialPool().threadCount(), width);
      expectLocalGoldens();
      return TrialOutcome{};
    });
  }
  EXPECT_EQ(trialPool().threadCount(), 1u);
}

TEST(GoldenMigration, AgreementOnEngineIsPinned) {
  // Captured from the SyncEngine walk-token implementation at migration time
  // (see golden_scenarios.hpp for why these pin the engine, not the oracle).
  EXPECT_EQ(golden::agreementFingerprint(0, 1.0), 0xc04be2f8613993a8ULL);
  EXPECT_EQ(golden::agreementFingerprint(8, 1.0), 0x1ed581d04cfd8fdaULL);
  EXPECT_EQ(golden::agreementFingerprint(8, 2.0), 0xfeb5c22bfec003a3ULL);
}

TEST(GoldenMigration, PipelineOnEngineIsPinned) {
  EXPECT_EQ(golden::pipelineFingerprint(BeaconAdversaryProfile::none(), 0), 0xf702f76c8582c57bULL);
  EXPECT_EQ(golden::pipelineFingerprint(BeaconAdversaryProfile::flooder(), 8),
            0x559fbf52906663baULL);
}

TEST(GoldenMigration, BaselinesMatchPreRefactorDecisions) {
  EXPECT_EQ(golden::geometricFingerprint(GeometricAttack::None), 0x927421feaa922dafULL);
  EXPECT_EQ(golden::geometricFingerprint(GeometricAttack::Inflate), 0x444da3032ea949b1ULL);
  EXPECT_EQ(golden::geometricFingerprint(GeometricAttack::Suppress), 0x74833fdbe117d7e1ULL);
  EXPECT_EQ(golden::supportFingerprint(SupportAttack::None), 0x8ae1332c4d96dcddULL);
  EXPECT_EQ(golden::supportFingerprint(SupportAttack::ZeroInject), 0x2e1a59de3c23bba2ULL);
  EXPECT_EQ(golden::supportFingerprint(SupportAttack::Suppress), 0x1eca799754ed6997ULL);
  EXPECT_EQ(golden::treeFingerprint(TreeAttack::None), 0xac3667db1751962fULL);
  EXPECT_EQ(golden::treeFingerprint(TreeAttack::Inflate), 0x2568f372c9e0136fULL);
  EXPECT_EQ(golden::treeFingerprint(TreeAttack::Mute), 0x571d62a92e69b3c7ULL);
}

// ---------------------------------------------------------------------------
// SyncEngine semantics.
// ---------------------------------------------------------------------------

using IntEngine = SyncEngine<int>;

TEST(SyncEngine, InboxPreservesQueueOrderAndRecvFiresInFirstDeliveryOrder) {
  // Star: center 0 with leaves 1..3.
  const Graph g = star(4);
  const ByzantineSet byz(4, {});
  IntEngine engine(g, byz);
  engine.broadcast(2, 20, 8);
  engine.broadcast(3, 30, 8);
  engine.broadcast(1, 10, 8);

  std::vector<NodeId> recvOrder;
  std::vector<int> centerInbox;
  auto res = engine.runWindow(1, [&](NodeId v, Round, const IntEngine::Inbox& box) {
    recvOrder.push_back(v);
    if (v == 0) {
      for (const auto& d : box) centerInbox.push_back(d.payload);
    }
  });
  EXPECT_EQ(res.status, WindowStatus::Completed);
  // Each leaf's only neighbour is the center, so exactly one node is touched,
  // and its inbox lists the senders in queue order, not index order.
  EXPECT_EQ(recvOrder, (std::vector<NodeId>{0}));
  EXPECT_EQ(centerInbox, (std::vector<int>{20, 30, 10}));
}

TEST(SyncEngine, QuiescentEmptyRoundIsCountedAndStops) {
  const Graph g = ring(4);
  const ByzantineSet byz(4, {});
  IntEngine engine(g, byz);
  const auto res = engine.runWindow(5, IntEngine::NoRecv{});
  EXPECT_EQ(res.status, WindowStatus::Quiesced);
  EXPECT_EQ(res.roundsRun, 1u);
  EXPECT_EQ(engine.round(), 1u);
}

TEST(SyncEngine, RunFullWindowKeepsGoingThroughIdleRounds) {
  const Graph g = ring(4);
  const ByzantineSet byz(4, {});
  IntEngine engine(g, byz);
  std::vector<Round> deliveries;
  auto emit = [&](Round w) {
    if (w == 3) engine.broadcast(0, 7, 8);  // traffic only in the last round
  };
  auto recv = [&](NodeId, Round w, const IntEngine::Inbox&) {
    deliveries.push_back(w);
  };
  const auto res = engine.runWindow(3, emit, recv, NoEnd{}, IdlePolicy::RunFullWindow);
  EXPECT_EQ(res.status, WindowStatus::Completed);
  EXPECT_EQ(res.roundsRun, 3u);
  EXPECT_EQ(deliveries, (std::vector<Round>{3, 3}));  // both ring neighbours of 0
}

TEST(SyncEngine, RoundCapStopsEndlessFlood) {
  const Graph g = ring(6);
  const ByzantineSet byz(6, {});
  IntEngine engine(g, byz, /*maxTotalRounds=*/4);
  engine.broadcast(0, 1, 8);
  auto echo = [&](NodeId v, Round, const IntEngine::Inbox&) {
    engine.broadcast(v, 1, 8);  // every receiver re-floods forever
  };
  const auto res = engine.runWindow(0, echo);
  EXPECT_EQ(res.status, WindowStatus::Capped);
  EXPECT_EQ(engine.round(), 4u);
  EXPECT_TRUE(engine.wouldExceed(1));
}

TEST(SyncEngine, EndHookStopsTheWindow) {
  const Graph g = ring(4);
  const ByzantineSet byz(4, {});
  IntEngine engine(g, byz);
  engine.broadcast(0, 1, 8);
  auto echo = [&](NodeId v, Round, const IntEngine::Inbox&) {
    engine.broadcast(v, 1, 8);
  };
  auto stopAfterTwo = [&](Round) { return engine.round() < 2; };
  const auto res = engine.runWindow(0, NoEmit{}, echo, stopAfterTwo);
  EXPECT_EQ(res.status, WindowStatus::Stopped);
  EXPECT_EQ(engine.round(), 2u);
}

TEST(SyncEngine, MetersHonestSendersOnly) {
  const Graph g = ring(4);  // every node has degree 2
  const ByzantineSet byz(4, {1});
  IntEngine engine(g, byz);
  engine.broadcast(0, 5, 32);  // honest broadcast: 2 copies of 32 bits
  engine.broadcast(1, 6, 32);  // Byzantine: delivered but never metered
  engine.unicast(2, 3, 7, 16);  // honest unicast: one copy
  std::size_t delivered = 0;
  auto res = engine.runWindow(1, [&](NodeId, Round, const IntEngine::Inbox& box) {
    delivered += box.size();
  });
  EXPECT_EQ(res.status, WindowStatus::Completed);
  EXPECT_EQ(delivered, 5u);  // 2 + 2 broadcast copies + 1 unicast
  MessageMeter meter = engine.releaseMeter();
  EXPECT_EQ(meter.messagesSent(0), 2u);
  EXPECT_EQ(meter.bitsSent(0), 64u);
  EXPECT_EQ(meter.maxMessageBits(0), 32u);
  EXPECT_EQ(meter.messagesSent(1), 0u);  // Byzantine traffic invisible to the meter
  EXPECT_EQ(meter.messagesSent(2), 1u);
  EXPECT_EQ(meter.bitsSent(2), 16u);
  EXPECT_EQ(meter.totalMessages(), 3u);
}

// A naive reference for one flush: per-receiver vectors of copied
// (sender, payload) pairs filled in send order, a first-delivery list, and
// the honest traffic the meter must record.
struct RefSend {
  NodeId from;
  NodeId to;  // kNoNode = broadcast
  std::uint64_t payload;
  std::size_t bits;
};
using RefInbox = std::vector<std::pair<NodeId, std::uint64_t>>;
struct RefRound {
  std::vector<RefInbox> inbox;
  std::vector<NodeId> firstDelivery;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

RefRound referenceFlush(const Graph& g, const ByzantineSet& byz,
                        const std::vector<RefSend>& sends) {
  RefRound r;
  r.inbox.resize(g.numNodes());
  const auto deliver = [&](NodeId v, const RefSend& s) {
    if (r.inbox[v].empty()) r.firstDelivery.push_back(v);
    r.inbox[v].emplace_back(s.from, s.payload);
  };
  for (const RefSend& s : sends) {
    const std::uint64_t copies = s.to == kNoNode ? g.degree(s.from) : 1;
    if (s.to == kNoNode) {
      for (NodeId v : g.neighbors(s.from)) deliver(v, s);
    } else {
      deliver(s.to, s);
    }
    if (!byz.contains(s.from)) {
      r.messages += copies;
      r.bits += copies * s.bits;
    }
  }
  return r;
}

// Random broadcasts and unicasts on an H(n, d) multigraph with Byzantine
// senders, checked round by round against referenceFlush: recv order, every
// inbox (read from recv and again from the end hook) and the meter totals.
// One round touches every node (the first-delivery list's spare slot). The
// first recv of every fifth round queues a burst larger than any earlier
// queue, so the send queue reallocates while later receivers still read their
// payloads; the sanitizer builds catch a payload read through a stale buffer.
TEST(SyncEngine, MatchesNaiveReferenceOnRandomRounds) {
  using U64Engine = SyncEngine<std::uint64_t>;
  constexpr NodeId n = 24;
  constexpr std::uint32_t kRounds = 30;
  constexpr Round kFullRound = 7;
  Rng gen(11);
  const Graph g = hnd(n, 6, gen);
  bool parallelEdge = false;
  for (NodeId u = 0; u < n; ++u) {
    const auto nb = g.neighbors(u);
    std::vector<NodeId> sorted(nb.begin(), nb.end());
    std::sort(sorted.begin(), sorted.end());
    parallelEdge |= std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
  }
  ASSERT_TRUE(parallelEdge) << "the seed must give the multigraph a parallel edge";
  const ByzantineSet byz(n, {3, 11, 20});
  U64Engine engine(g, byz);
  Rng rng(12);

  std::vector<RefSend> pending;  // mirrors the engine's send queue
  std::uint64_t nextPayload = 1;
  std::size_t maxQueued = 0;
  const auto queue = [&](NodeId from, NodeId to) {
    const RefSend s{from, to, nextPayload++, 1 + rng.uniform(64)};
    pending.push_back(s);
    if (to == kNoNode) {
      engine.broadcast(from, s.payload, s.bits);
    } else {
      engine.unicast(from, to, s.payload, s.bits);
    }
  };
  const auto randomSend = [&](NodeId from) {
    queue(from, rng.bernoulli(0.5) ? kNoNode : static_cast<NodeId>(rng.uniform(n)));
  };
  const auto inboxPairs = [](const U64Engine::Inbox& box) {
    RefInbox got;
    for (const U64Engine::Delivery& d : box) got.emplace_back(d.sender, d.payload);
    for (std::size_t k = 0; k < box.size(); ++k) {
      EXPECT_EQ(box[k].sender, got[k].first);
      EXPECT_EQ(box[k].payload, got[k].second);
    }
    if (!box.empty()) {
      EXPECT_EQ(box.front().payload, got.front().second);
    }
    EXPECT_EQ(box.empty(), got.empty());
    return got;
  };

  RefRound expected;
  std::uint64_t refMessages = 0;
  std::uint64_t refBits = 0;
  std::vector<NodeId> recvOrder;
  std::uint32_t bursts = 0;
  auto emit = [&](Round w) {
    if (w == kFullRound) {
      for (NodeId u = 0; u < n; ++u) queue(u, kNoNode);
    } else {
      const auto sends = rng.uniform(n);  // sometimes none: an idle round
      for (std::uint64_t i = 0; i < sends; ++i) randomSend(static_cast<NodeId>(rng.uniform(n)));
    }
    // The engine flushes everything queued so far right after this hook.
    expected = referenceFlush(g, byz, pending);
    refMessages += expected.messages;
    refBits += expected.bits;
    maxQueued = std::max(maxQueued, pending.size());
    pending.clear();
    recvOrder.clear();
  };
  auto recv = [&](NodeId v, Round w, const U64Engine::Inbox& box) {
    recvOrder.push_back(v);
    EXPECT_EQ(inboxPairs(box), expected.inbox[v]) << "round " << w << " node " << v;
    if (w % 5 == 0 && recvOrder.size() == 1) {
      ++bursts;
      const std::size_t burst = 2 * maxQueued + 64;  // beyond any earlier capacity
      for (std::size_t i = 0; i < burst; ++i) {
        queue(v, static_cast<NodeId>(rng.uniform(n)));
      }
    } else if (rng.bernoulli(0.6)) {
      randomSend(v);
    }
  };
  auto end = [&](Round w) {
    EXPECT_EQ(recvOrder, expected.firstDelivery) << "round " << w;
    if (w == kFullRound) {
      EXPECT_EQ(expected.firstDelivery.size(), std::size_t{n});
    }
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(inboxPairs(engine.inboxOf(v)), expected.inbox[v]) << "round " << w << " node " << v;
    }
    EXPECT_EQ(engine.meter().totalMessages(), refMessages) << "round " << w;
    EXPECT_EQ(engine.meter().totalBits(), refBits) << "round " << w;
    return true;
  };
  const auto res = engine.runWindow(kRounds, emit, recv, end, IdlePolicy::RunFullWindow);
  EXPECT_EQ(res.status, WindowStatus::Completed);
  EXPECT_EQ(res.roundsRun, kRounds);
  EXPECT_GE(bursts, 4u);
}

TEST(SyncEngine, SkipRoundsChargesWallClockWithoutTraffic) {
  const Graph g = ring(4);
  const ByzantineSet byz(4, {});
  IntEngine engine(g, byz, 10);
  engine.skipRounds(7);
  EXPECT_EQ(engine.round(), 7u);
  EXPECT_FALSE(engine.wouldExceed(3));
  EXPECT_TRUE(engine.wouldExceed(4));
}

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 5; ++rep) {
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(16,
                                [&](std::size_t i) {
                                  if (i == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> ran{0};
  pool.parallelFor(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

// Parks the only worker of a 2-thread pool on a gate, so every later submit()
// stays queued until the caller's wait() takes it.
std::future<void> parkOnlyWorker(ThreadPool& pool, std::shared_future<void> gate) {
  auto started = std::make_shared<std::promise<void>>();
  std::future<void> running = started->get_future();
  std::future<void> parked = pool.submit([gate, started] {
    started->set_value();
    gate.wait();
  });
  running.wait();
  return parked;
}

// The task runs on the caller with the trial pool of the thread that
// submitted it, like one on a worker.
TEST(ThreadPool, WaitRunsAQueuedTaskOnTheCallingThread) {
  ThreadPool pool(2);
  std::promise<void> open;
  std::future<void> parked = parkOnlyWorker(pool, open.get_future().share());
  std::future<std::pair<std::thread::id, ThreadPool*>> fut;
  {
    const ThreadPool::TrialPoolScope trial(&pool);
    fut = pool.submit([] { return std::pair(std::this_thread::get_id(), &trialPool()); });
  }
  EXPECT_NE(&trialPool(), &pool);  // outside the scope: the inline pool
  EXPECT_EQ(pool.wait(fut), std::pair(std::this_thread::get_id(), &pool));
  EXPECT_NE(&trialPool(), &pool);
  open.set_value();
  pool.wait(parked);
}

// A task run by wait() may itself wait on a child it queued: the nested wait
// runs the child on the same thread. If it did not, the child would sit
// queued until the watchdog below released the worker after 5 s, and run
// there.
TEST(ThreadPool, NestedWaitRunsAQueuedChild) {
  ThreadPool pool(2);
  std::promise<void> open;
  std::future<void> parked = parkOnlyWorker(pool, open.get_future().share());
  std::promise<void> finished;
  std::thread watchdog([&open, done = finished.get_future()] {
    (void)done.wait_for(std::chrono::seconds(5));
    open.set_value();
  });
  auto outer = pool.submit([&pool] {
    auto child = pool.submit([] { return std::this_thread::get_id(); });
    return pool.wait(child);
  });
  EXPECT_EQ(pool.wait(outer), std::this_thread::get_id());
  finished.set_value();
  watchdog.join();
  pool.wait(parked);
}

TEST(ThreadPool, WaitRethrowsAQueuedTasksException) {
  ThreadPool pool(2);
  std::promise<void> open;
  std::future<void> parked = parkOnlyWorker(pool, open.get_future().share());
  std::future<int> fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(fut), std::runtime_error);
  open.set_value();
  pool.wait(parked);
}

TEST(ThreadPool, WaitOnAnInlineFutureReturnsAtOnce) {
  ThreadPool pool(1);
  std::future<int> fut = pool.submit([] { return 7; });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(pool.wait(fut), 7);
}

// One loop slot: a body that starts a second parallelFor on its own pool
// gets std::logic_error, the outer call rethrows it, and the pool still works.
TEST(ThreadPool, ParallelForRefusesToNest) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(4, [&pool](std::size_t) { pool.parallelFor(2, [](std::size_t) {}); }),
               std::logic_error);
  std::atomic<int> ran{0};
  pool.parallelFor(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

// Waits up to 5 s for `arrivals` to reach `expected`.
bool meet(std::atomic<int>& arrivals, int expected) {
  arrivals.fetch_add(1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (arrivals.load() < expected) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// The caller of parallelFor runs queued tasks until its workers are done.
// Two indices meet first, so they run on different threads; the one on the
// worker queues two tasks that must meet each other. It runs one itself in
// wait(), and only the caller, whose own index is finished, can run the
// other one in time.
TEST(ThreadPool, ParallelForCallerRunsQueuedTasksUntilItsWorkersAreDone) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<int> tasks{0};
  std::atomic<bool> startedApart{true}, met{true};
  pool.parallelFor(2, [&](std::size_t) {
    if (!meet(started, 2)) startedApart = false;
    if (std::this_thread::get_id() == caller) return;
    auto a = pool.submit([&] { return meet(tasks, 2); });
    auto b = pool.submit([&] { return meet(tasks, 2); });
    const bool metA = pool.wait(a);
    const bool metB = pool.wait(b);
    met = metA && metB;
  });
  EXPECT_TRUE(startedApart);
  EXPECT_TRUE(met);
}

// parallelForTasks nests where parallelFor cannot: inside a parallelFor body
// on the same pool, each call still runs every index exactly once.
TEST(ThreadPool, ParallelForTasksNestsInsideParallelFor) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4 * 101);
  pool.parallelFor(4, [&](std::size_t outer) {
    pool.parallelForTasks(101, 3, [&](std::size_t i) { hits[outer * 101 + i].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_THROW(pool.parallelForTasks(64, 3,
                                     [](std::size_t i) {
                                       if (i == 9) throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
  std::atomic<int> ran{0};
  trialPool().parallelForTasks(5, 3, [&](std::size_t) { ran.fetch_add(1); });  // inline
  EXPECT_EQ(ran.load(), 5);
}

// The caller of parallelForTasks runs no other queued task: with the only
// worker blocked, it runs every index itself and returns, leaving a foreign
// task and its own unstarted helper queued. The helper then runs after the
// call is gone and touches nothing.
TEST(ThreadPool, ParallelForTasksCallerRunsNoQueuedTask) {
  ThreadPool pool(2);
  std::atomic<int> blocking{0};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    blocking.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  });
  ASSERT_TRUE(meet(blocking, 2));  // the worker holds the blocker
  std::thread::id foreignRanOn;
  auto foreign = pool.submit([&] { foreignRanOn = std::this_thread::get_id(); });
  std::vector<int> hits(32, 0);
  pool.parallelForTasks(hits.size(), 1, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(foreign.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  release = true;
  blocker.get();
  foreign.get();
  EXPECT_NE(foreignRanOn, std::this_thread::get_id());
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 32);
}

// A throwing body abandons the indices not yet started: the helper that runs
// after the call has rethrown runs none of them.
TEST(ThreadPool, ParallelForTasksAbandonsTheRestAfterAThrow) {
  ThreadPool pool(2);
  std::atomic<int> blocking{0};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    blocking.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  });
  ASSERT_TRUE(meet(blocking, 2));
  std::atomic<int> calls{0};
  const std::function<void(std::size_t)> body = [&](std::size_t) {
    calls.fetch_add(1);
    throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.parallelForTasks(8, 1, body), std::runtime_error);
  release = true;
  blocker.get();
  pool.submit([] {}).get();  // queued behind the helper, on the same worker
  EXPECT_EQ(calls.load(), 1);
}

// idleThreads() counts the threads waiting for work: none while every
// thread runs a parallelFor index, the worker again once it is back.
TEST(ThreadPool, IdleThreadsCountsWaitingThreads) {
  EXPECT_EQ(trialPool().idleThreads(), 0u);
  ThreadPool pool(2);
  std::atomic<int> started{0}, read{0};
  std::atomic<unsigned> idleInside{0};
  pool.parallelFor(2, [&](std::size_t) {
    meet(started, 2);
    idleInside.fetch_add(pool.idleThreads());
    meet(read, 2);  // neither thread waits for work before both have read
  });
  EXPECT_EQ(idleInside.load(), 0u);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.idleThreads() != 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.idleThreads(), 1u);
}

// The bound is checked before any thread starts.
TEST(ThreadPool, RefusesMoreThreadsThanTheBound) {
  EXPECT_THROW(ThreadPool(kMaxPoolThreads + 1), std::invalid_argument);
  EXPECT_THROW(ExperimentRunner(kMaxPoolThreads + 1), std::invalid_argument);
  EXPECT_GE(ThreadPool(0).threadCount(), 1u);
  EXPECT_LE(ThreadPool(0).threadCount(), kMaxPoolThreads);
}

// BZC_THREADS parses into [0, kMaxPoolThreads]; only the parse runs here, no
// pool is built.
TEST(KnobDeathTest, ThreadsKnobExitsAboveThePoolBound) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("BZC_THREADS", std::to_string(kMaxPoolThreads).c_str(), 1);
  EXPECT_EQ(bench::threadCount(), kMaxPoolThreads);
  for (const std::string& bad : {std::to_string(kMaxPoolThreads + 1), std::string("4294967295")}) {
    ::setenv("BZC_THREADS", bad.c_str(), 1);
    EXPECT_EXIT((void)bench::threadCount(), ::testing::ExitedWithCode(2), "BZC_THREADS");
  }
  ::unsetenv("BZC_THREADS");
}

// ---------------------------------------------------------------------------
// ExperimentRunner determinism: the acceptance criterion. Same ScenarioSpec +
// master seed must give identical per-trial CountingResults (witnessed by
// fingerprints) at 1, 2 and 8 threads, with >= 32 trials in parallel.
// ---------------------------------------------------------------------------

ScenarioSpec cheapScenario() {
  ScenarioSpec spec;
  spec.name = "geometric-inflate-hnd";
  spec.graph = {GraphKind::Hnd, 256, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.byzGamma = 0.55;
  spec.protocol = ProtocolKind::GeometricMax;
  spec.geometricAttack = GeometricAttack::Inflate;
  spec.trials = 48;
  spec.masterSeed = 0xfeed;
  return spec;
}

TEST(ExperimentRunner, ThreadCountInvariantAndSeedDeterministic) {
  const ScenarioSpec spec = cheapScenario();
  ExperimentSummary byThreads[3];
  const unsigned counts[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    ExperimentRunner runner(counts[t]);
    EXPECT_EQ(runner.threadCount(), counts[t]);
    byThreads[t] = runner.run(spec);
  }
  ASSERT_EQ(byThreads[0].perTrial.size(), 48u);
  for (int t = 1; t < 3; ++t) {
    EXPECT_EQ(byThreads[0].combinedFingerprint, byThreads[t].combinedFingerprint);
    ASSERT_EQ(byThreads[t].perTrial.size(), 48u);
    for (std::size_t i = 0; i < 48; ++i) {
      EXPECT_EQ(byThreads[0].perTrial[i].resultFingerprint,
                byThreads[t].perTrial[i].resultFingerprint)
          << "trial " << i << " diverged at " << counts[t] << " threads";
    }
    EXPECT_DOUBLE_EQ(byThreads[0].fracDecided.mean, byThreads[t].fracDecided.mean);
    EXPECT_DOUBLE_EQ(byThreads[0].totalRounds.p90, byThreads[t].totalRounds.p90);
  }
  // Re-running with the same master seed reproduces; a different seed must not.
  ExperimentRunner runner(8);
  EXPECT_EQ(runner.run(spec).combinedFingerprint, byThreads[0].combinedFingerprint);
  ScenarioSpec reseeded = spec;
  reseeded.masterSeed = 0xbeef;
  EXPECT_NE(runner.run(reseeded).combinedFingerprint, byThreads[0].combinedFingerprint);
}

TEST(ExperimentRunner, BeaconScenarioParallelTrialsAggregates) {
  ScenarioSpec spec;
  spec.name = "beacon-flooder";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.byzGamma = 0.55;
  spec.protocol = ProtocolKind::Beacon;
  spec.beaconAdversary = BeaconAdversaryProfile::flooder();
  spec.beaconLimits.maxPhase = 8;
  spec.beaconLimits.maxTotalRounds = 20'000;
  spec.trials = 32;
  spec.masterSeed = 7;

  ExperimentRunner runner(8);
  const ExperimentSummary summary = runner.run(spec);
  ASSERT_EQ(summary.perTrial.size(), 32u);
  EXPECT_GT(summary.fracDecided.mean, 0.5);  // flooders hit small n hard; T2 covers quality
  EXPECT_GT(summary.meanRatio.mean, 0.0);
  EXPECT_GE(summary.totalRounds.min, 1.0);
  EXPECT_LE(summary.fracDecided.min, summary.fracDecided.p50);
  EXPECT_LE(summary.fracDecided.p50, summary.fracDecided.max);

  ExperimentRunner serial(1);
  EXPECT_EQ(serial.run(spec).combinedFingerprint, summary.combinedFingerprint);
}

TEST(ExperimentRunner, PipelineScenarioThreadCountInvariant) {
  // Acceptance criterion of the agreement migration: the counting->agreement
  // pipeline, run declaratively, must produce identical per-trial results at
  // any thread count (every stream, walk-token trajectories included, is a
  // pure function of (masterSeed, trial index)).
  ScenarioSpec spec;
  spec.name = "pipeline-flooder";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 4;
  spec.protocol = ProtocolKind::Pipeline;
  spec.beaconAdversary = BeaconAdversaryProfile::flooder();
  spec.pipelineParams.agreement.initialOnesFraction = 0.7;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.estimateSafetyFactor = 1.5;
  spec.pipelineParams.countingLimits.maxPhase = 8;
  spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
  spec.trials = 24;
  spec.masterSeed = 0x9a;

  ExperimentSummary byThreads[3];
  const unsigned counts[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    ExperimentRunner runner(counts[t]);
    byThreads[t] = runner.run(spec);
  }
  ASSERT_EQ(byThreads[0].perTrial.size(), 24u);
  for (int t = 1; t < 3; ++t) {
    EXPECT_EQ(byThreads[0].combinedFingerprint, byThreads[t].combinedFingerprint)
        << "pipeline diverged at " << counts[t] << " threads";
  }
  // The agreement-stage metrics come through the declarative extras.
  ASSERT_EQ(layouts::namesOf(byThreads[0].extras), layouts::kAgreement);
  EXPECT_GT(byThreads[0].extras.at("fracAgreeing").mean, 0.5);
  EXPECT_LE(byThreads[0].extras.at("fracAgreeing").max, 1.0);
  EXPECT_GT(byThreads[0].extras.at("agreementRounds").min, 0.0);
  EXPECT_GT(byThreads[0].totalMessages.min, 0.0);
}

TEST(ExperimentRunner, AgreementScenarioThreadCountInvariant) {
  ScenarioSpec spec;
  spec.name = "agreement-oracle";
  spec.graph = {GraphKind::Hnd, 192, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 5;
  spec.protocol = ProtocolKind::Agreement;
  spec.agreementParams.initialOnesFraction = 0.7;
  spec.trials = 24;
  spec.masterSeed = 0x55;

  ExperimentRunner parallel(8);
  ExperimentRunner serial(1);
  const ExperimentSummary a = parallel.run(spec);
  const ExperimentSummary b = serial.run(spec);
  EXPECT_EQ(a.combinedFingerprint, b.combinedFingerprint);
  ASSERT_EQ(layouts::namesOf(a.extras), layouts::kAgreement);
  // 5 Byzantine nodes at n = 192 is over the sqrt(n)/polylog budget, so
  // convergence is partial; the invariance above is what this test pins.
  EXPECT_GT(a.extras.at("fracAgreeing").mean, 0.5);
  EXPECT_GT(a.extras.at("compromised").mean, 0.0);
}

TEST(ExperimentRunner, UntracedTrialsSpreadOnTheRunnersPool) {
  // An untraced trial and the tasks it submits see the runner's pool; a
  // traced one (the leading traceTrials) and the calling thread see the
  // inline one-thread pool.
  const auto widths = [](unsigned threads, bool traced) {
    if (traced) obs::setTraceSink(std::make_shared<obs::CapturingTraceSink>(), 1);
    ExperimentRunner runner(threads);
    const ExperimentSummary s = runner.runCustom("trial-pool", 3, [](std::uint32_t) {
      TrialOutcome t;
      ThreadPool& pool = trialPool();
      auto inTask = pool.submit([] { return trialPool().threadCount(); });
      t.extra.set("width", static_cast<double>(pool.threadCount()));
      t.extra.set("taskWidth", static_cast<double>(pool.wait(inTask)));
      return t;
    });
    obs::setTraceSink(nullptr);
    std::vector<double> out;
    for (const TrialOutcome& t : s.perTrial) {
      out.push_back(t.extra.at("width"));
      out.push_back(t.extra.at("taskWidth"));
    }
    return out;
  };
  EXPECT_EQ(widths(1, false), std::vector<double>(6, 1.0));
  EXPECT_EQ(widths(4, false), std::vector<double>(6, 4.0));
  EXPECT_EQ(widths(4, true), (std::vector<double>{1, 1, 4, 4, 4, 4}));
  EXPECT_EQ(trialPool().threadCount(), 1u);  // the calling thread keeps the inline pool
}

TEST(ExperimentRunner, LocalSingleTrialInvariantAcrossRunnerWidths) {
  // One trial in flight has the whole pool to itself, so this runs
  // Algorithm 1's end-of-round passes on 1, 2, 4 and 8 threads.
  ScenarioSpec spec;
  spec.name = "local-one-trial";
  spec.graph = {GraphKind::Hnd, 256, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.byzGamma = 0.5;
  spec.protocol = ProtocolKind::Local;
  spec.trials = 1;
  spec.masterSeed = 0x10ca1;

  // Protocol-following Byzantine nodes (the honest control), then fake-world.
  for (const bool fakeWorld : {false, true}) {
    SCOPED_TRACE(fakeWorld ? "fake-world" : "honest");
    if (fakeWorld) spec.localAdversary = [] { return makeFakeWorldLocalAdversary({}); };
    std::uint64_t reference = 0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      ExperimentRunner runner(threads);
      const ExperimentSummary declarative = runner.run(spec);
      const ExperimentSummary custom = runner.runCustom(
          spec.name, 1, [&spec](std::uint32_t i) { return ExperimentRunner::runTrial(spec, i); });
      ASSERT_EQ(declarative.perTrial.size(), 1u);
      ASSERT_EQ(custom.perTrial.size(), 1u);
      const std::uint64_t fp = declarative.perTrial[0].resultFingerprint;
      if (threads == 1) reference = fp;
      EXPECT_EQ(fp, reference) << "run() diverged at " << threads << " threads";
      EXPECT_EQ(custom.perTrial[0].resultFingerprint, reference)
          << "runCustom() diverged at " << threads << " threads";
      EXPECT_GT(declarative.fracDecided.mean, 0.0);
    }
  }
}

TEST(ExperimentRunner, ChurnSingleTrialInvariantAcrossRunnerWidths) {
  // One churn trial in flight has the whole pool to itself: its recounts run
  // on pool workers on 2, 4 and 8 threads.
  ScenarioSpec pipeline;
  pipeline.name = "churn-pipeline-one-trial";
  pipeline.graph = {GraphKind::Hnd, 128, 8, 0.1};
  pipeline.placement.kind = Placement::Random;
  pipeline.placement.count = 4;
  pipeline.protocol = ProtocolKind::Pipeline;
  pipeline.pipelineParams.agreement.initialOnesFraction = 0.7;
  pipeline.pipelineParams.agreement.walkLengthFactor = 0.5;
  pipeline.pipelineParams.estimateSafetyFactor = 1.5;
  pipeline.pipelineParams.countingLimits.maxPhase = 8;
  pipeline.churn = ChurnSchedule::steady(/*epochs=*/4, /*rate=*/0.08, /*recountEvery=*/1);
  pipeline.trials = 1;
  pipeline.masterSeed = 0xc1a0;

  // Algorithm 1 recounts: with three recounts they run concurrently, each
  // spreading its passes over the same pool; with one, the recount's passes
  // have the pool to themselves.
  ScenarioSpec local;
  local.name = "churn-local-one-trial";
  local.graph = {GraphKind::Hnd, 128, 8, 0.1};
  local.placement.kind = Placement::Random;
  local.byzGamma = 0.5;
  local.protocol = ProtocolKind::Local;
  local.churn = ChurnSchedule::steady(/*epochs=*/3, /*rate=*/0.08, /*recountEvery=*/1);
  local.trials = 1;
  local.masterSeed = 0xc1a1;
  ScenarioSpec localInline = local;
  localInline.name = "churn-local-inline-one-trial";
  localInline.churn = ChurnSchedule::steady(/*epochs=*/2, /*rate=*/0.08, /*recountEvery=*/2);

  for (const ScenarioSpec* spec : {&pipeline, &local, &localInline}) {
    SCOPED_TRACE(spec->name);
    std::uint64_t reference = 0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      ExperimentRunner runner(threads);
      const ExperimentSummary declarative = runner.run(*spec);
      const ExperimentSummary custom = runner.runCustom(
          spec->name, 1, [spec](std::uint32_t i) { return ExperimentRunner::runTrial(*spec, i); });
      ASSERT_EQ(declarative.perTrial.size(), 1u);
      ASSERT_EQ(custom.perTrial.size(), 1u);
      const std::uint64_t fp = declarative.perTrial[0].resultFingerprint;
      if (threads == 1) reference = fp;
      EXPECT_EQ(fp, reference) << "run() diverged at " << threads << " threads";
      EXPECT_EQ(custom.perTrial[0].resultFingerprint, reference)
          << "runCustom() diverged at " << threads << " threads";
      EXPECT_EQ(declarative.combinedFingerprint, custom.combinedFingerprint);
      EXPECT_GT(declarative.fracDecided.mean, 0.0);
    }
  }
}

TEST(ExperimentRunner, MaterializeTrialIsAPureFunctionOfSpecAndIndex) {
  const ScenarioSpec spec = cheapScenario();
  for (std::uint32_t i : {0u, 1u, 17u}) {
    MaterializedTrial a = materializeTrial(spec, i);
    MaterializedTrial b = materializeTrial(spec, i);
    EXPECT_EQ(a.graph.edgeList(), b.graph.edgeList());
    EXPECT_EQ(a.byz.members(), b.byz.members());
    EXPECT_EQ(a.runRng.next(), b.runRng.next());
  }
  // Different trials see different placements/graph streams.
  MaterializedTrial t0 = materializeTrial(spec, 0);
  MaterializedTrial t1 = materializeTrial(spec, 1);
  EXPECT_NE(t0.byz.members(), t1.byz.members());
}

TEST(ExperimentRunner, CustomTrialsAggregateExtraMetrics) {
  ExperimentRunner runner(4);
  const ExperimentSummary summary =
      runner.runCustom("extras", 10, [](std::uint32_t index) {
        TrialOutcome t;
        t.quality.fracDecided = 1.0;
        t.totalRounds = index + 1;
        t.resultFingerprint = index;
        t.extra.set("index", static_cast<double>(index));
        t.extra.set("two", 2.0);
        return t;
      });
  ASSERT_EQ(layouts::namesOf(summary.extras), (std::vector<std::string>{"index", "two"}));
  EXPECT_DOUBLE_EQ(summary.extras.at("index").mean, 4.5);
  EXPECT_DOUBLE_EQ(summary.extras.at("index").min, 0.0);
  EXPECT_DOUBLE_EQ(summary.extras.at("index").max, 9.0);
  EXPECT_DOUBLE_EQ(summary.extras.at("two").mean, 2.0);
  EXPECT_DOUBLE_EQ(summary.totalRounds.mean, 5.5);
}

TEST(NamedValues, SetOverwritesInPlaceAndAtNamesTheMissingKey) {
  NamedValues<double> record;
  record.set("a", 1.0);
  record.set("b", 2.0);
  record.set("a", 3.0);  // overwrite keeps the first insertion's position
  EXPECT_EQ(layouts::namesOf(record), (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(record.at("a"), 3.0);
  EXPECT_THROW((void)record.at("nope"), std::invalid_argument);
  try {
    (void)record.at("nope");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"nope\""), std::string::npos) << e.what();
  }
}

TEST(ExperimentRunner, TrialsMustAgreeOnExtraMetricNamesAndOrder) {
  ExperimentRunner runner(2);
  const auto runWith = [&](const std::vector<std::string>& oddNames) {
    return runner.runCustom("disagree", 4, [&](std::uint32_t index) {
      TrialOutcome t;
      const std::vector<std::string> names =
          index == 3 ? oddNames : std::vector<std::string>{"x", "y"};
      for (const std::string& name : names) t.extra.set(name, 1.0);
      return t;
    });
  };
  EXPECT_NO_THROW((void)runWith({"x", "y"}));
  EXPECT_THROW((void)runWith({"y", "x"}), std::invalid_argument);  // order
  EXPECT_THROW((void)runWith({"x", "z"}), std::invalid_argument);  // name
  EXPECT_THROW((void)runWith({"x"}), std::invalid_argument);       // count
}

TEST(ExperimentRunner, KthExtraKeepsBootstrapStreamSixteenPlusK) {
  ExperimentRunner runner(3);
  const ExperimentSummary s = runner.runCustom("boot", 9, [](std::uint32_t index) {
    TrialOutcome t;
    t.extra.set("first", static_cast<double>(index * index));
    t.extra.set("second", static_cast<double>(index % 4));
    t.extra.set("third", 0.5 * index);
    return t;
  });
  std::size_t k = 0;
  for (const auto& [name, d] : s.extras) {
    std::vector<double> sample;
    for (const TrialOutcome& t : s.perTrial) sample.push_back(t.extra.at(name));
    const Distribution want = Distribution::of(sample, Rng(0xb0075eedULL).fork(16 + k));
    EXPECT_EQ(d.ci95lo, want.ci95lo) << name;
    EXPECT_EQ(d.ci95hi, want.ci95hi) << name;
    EXPECT_EQ(d.mean, want.mean) << name;
    EXPECT_LT(d.ci95lo, d.ci95hi) << name;  // a real resample, not the point estimate
    ++k;
  }
  EXPECT_EQ(k, 3u);
}

TEST(Distribution, QuantilesOnKnownSample) {
  const Distribution d = Distribution::of({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(d.mean, 3.0);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.max, 5.0);
  EXPECT_DOUBLE_EQ(d.p50, 3.0);
}

}  // namespace
}  // namespace bzc
