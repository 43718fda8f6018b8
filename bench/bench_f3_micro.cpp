// F3 — Microbenchmarks (google-benchmark): the hot paths of the simulator.
//
// Not a paper claim; engineering support for the experiment harnesses. Keeps
// an eye on: beacon-round cost, path-arena operations, view integration,
// view-graph builds, spectral sweeps, generators and PRNG draws.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "counting/beacon/path.hpp"
#include "counting/beacon/protocol.hpp"
#include "counting/local/view.hpp"
#include "graph/bfs.hpp"
#include "graph/expansion.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "support/rng.hpp"

namespace {

using namespace bzc;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_GeometricFlips(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.geometricFlips());
}
BENCHMARK(BM_GeometricFlips);

void BM_HndGenerate(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hnd(n, 8, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HndGenerate)->Arg(1024)->Arg(4096);

void BM_BeaconPathArenaAppendWalk(benchmark::State& state) {
  BeaconPathArena arena;
  Rng rng(4);
  for (auto _ : state) {
    arena.clear();
    BeaconPathRef p = kNoBeaconPath;
    for (int i = 0; i < 16; ++i) p = arena.append(p, rng.next());
    std::uint64_t acc = 0;
    arena.walkPrefix(p, 2, [&](PublicId id) {
      acc ^= id;
      return true;
    });
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_BeaconPathArenaAppendWalk);

void BM_BeaconBenignRun(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng gen(5);
  const Graph g = hnd(n, 8, gen);
  const ByzantineSet none(n, {});
  for (auto _ : state) {
    Rng rng(6);
    benchmark::DoNotOptimize(
        runBeaconCounting(g, none, BeaconAdversaryProfile::none(), {}, {}, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BeaconBenignRun)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// The same run with a trace buffer installed — the traced-vs-untraced pair
// (BM_BeaconBenignRun above is the baseline) bounds the full probe cost:
// engine round records, protocol spans/counters, clock reads.
void BM_BeaconTracedRun(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng gen(5);
  const Graph g = hnd(n, 8, gen);
  const ByzantineSet none(n, {});
  obs::TrialTrace trace;
  for (auto _ : state) {
    trace.events.clear();
    const obs::TraceScope scope(&trace);
    Rng rng(6);
    benchmark::DoNotOptimize(
        runBeaconCounting(g, none, BeaconAdversaryProfile::none(), {}, {}, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BeaconTracedRun)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// Null-sink probe cost in isolation: a disabled ScopedTimer plus a disabled
// counter probe per loop step — the per-probe price every protocol pays when
// tracing is off (a thread-local load and a branch; the clock is never read).
void BM_NullSinkProbe(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    const obs::ScopedTimer timer("bench.nullProbe");
    obs::emitCounter("bench.nullCounter", static_cast<double>(i));
    benchmark::DoNotOptimize(++i);
  }
}
BENCHMARK(BM_NullSinkProbe);

// Metrics layer (DESIGN.md §13): cost of the streaming histogram hot paths —
// add is on the per-round distillation path, merge is the per-epoch /
// per-trial fold. Both must stay trivially cheap next to a protocol round.
void BM_LogHistogramAdd(benchmark::State& state) {
  obs::LogHistogram h;
  Rng rng(6);
  std::uint64_t v = rng.next();
  for (auto _ : state) {
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;  // cheap LCG step
    h.add(v >> (v & 31U));
    benchmark::DoNotOptimize(h.count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogHistogramAdd);

void BM_LogHistogramMerge(benchmark::State& state) {
  obs::LogHistogram src;
  Rng rng(7);
  for (int i = 0; i < 4096; ++i) src.add(rng.uniform(1ULL << (1 + rng.uniform(40))));
  for (auto _ : state) {
    obs::LogHistogram dst;
    dst.merge(src);
    benchmark::DoNotOptimize(dst.count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogHistogramMerge);

void BM_ViewIntegrate(benchmark::State& state) {
  const NodeId n = 1024;
  Rng gen(7);
  const Graph g = hnd(n, 8, gen);
  Rng idRng(8);
  const IdSpace ids(n, idRng);
  const RecordPool pool(g, ids);
  for (auto _ : state) {
    LocalView view(&pool, 8);
    view.installSelf(0);
    for (NodeId v = 1; v < n; ++v) {
      benchmark::DoNotOptimize(view.integrate(v, 1 + v / 64));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ViewIntegrate);

// The spectral check's view-graph build on node 0's view of H(768, 8): the
// records within `radius` hops integrated, the next layer as boundary
// (radius 3 leaves about half the names on the boundary; 64 is the full view).
void BM_ViewGraphBuild(benchmark::State& state) {
  const NodeId n = 768;
  Rng gen(11);
  const Graph g = hnd(n, 8, gen);
  Rng idRng(12);
  const IdSpace ids(n, idRng);
  const RecordPool pool(g, ids);
  LocalView view(&pool, 8);
  view.installSelf(0);
  const auto dist = bfsDistances(g, 0);
  const auto radius = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t d = 1; d <= radius; ++d) {
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] == d) benchmark::DoNotOptimize(view.integrate(v, d));
    }
  }
  for (auto _ : state) benchmark::DoNotOptimize(view.buildViewGraph());
  state.SetItemsProcessed(state.iterations() * view.size());
}
BENCHMARK(BM_ViewGraphBuild)->Arg(3)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_FiedlerSweep(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng gen(9);
  const Graph g = hnd(n, 8, gen);
  for (auto _ : state) {
    Rng rng(10);
    benchmark::DoNotOptimize(fiedlerSweep(g, 50, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FiedlerSweep)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

// Dispatch overhead of the two parallelFor flavours at a tiny per-item cost:
// per-index touches the shared cursor once per element, chunked once per
// contiguous block. The gap between the two is the scatter overhead the
// SyncEngine and trial runner paid before switching to parallelForChunked.
void BM_ParallelForPerIndex(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(4);
  std::vector<std::uint64_t> sink(count, 0);
  for (auto _ : state) {
    pool.parallelFor(count, [&](std::size_t i) { sink[i] += i; });
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_ParallelForPerIndex)->Arg(1024)->Arg(65536);

void BM_ParallelForChunked(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(4);
  std::vector<std::uint64_t> sink(count, 0);
  for (auto _ : state) {
    pool.parallelForChunked(count, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) sink[i] += i;
    });
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_ParallelForChunked)->Arg(1024)->Arg(65536);

// Future-based submit() round-trip — the per-recount dispatch cost of the
// epoch pipeline (one submit + one future.get per recounted epoch).
void BM_ThreadPoolSubmitRoundTrip(benchmark::State& state) {
  ThreadPool pool(2);
  for (auto _ : state) {
    auto fut = pool.submit([] { return std::uint64_t{42}; });
    benchmark::DoNotOptimize(fut.get());
  }
}
BENCHMARK(BM_ThreadPoolSubmitRoundTrip);

}  // namespace

BENCHMARK_MAIN();
