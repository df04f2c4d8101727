// BATCH1: the batched/incremental PD-implication service layer
// (core/implication.h) against the cold-closure baseline. Four
// comparisons, all on the RandomTheory/RandomQueries workload family from
// workloads.h:
//
//   * BM_ColdPerQuery      — the baseline: one fresh engine per query, so
//                            every query pays a full cold closure.
//   * BM_BatchImplies      — one engine, whole query span: batching
//                            amortizes the closure.
//   * BM_ClosureOnly       — the closure sweep alone.
//   * BM_IncrementalStream — queries arriving one at a time against one
//     vs BM_ColdStream       engine (warm re-close of the dirty frontier)
//                            vs a fresh engine per query.
//
// CI runs this with --benchmark_format=json and stores the output as
// BENCH_implication.json — the perf trajectory for the service layer
// (see README.md "Performance" for one recorded run).

#include <benchmark/benchmark.h>

#include "psem.h"
#include "workloads.h"

namespace {

using namespace psem;
using namespace psem::bench;

constexpr int kNumAttrs = 10;
constexpr int kNumPds = 24;
constexpr int kTheoryOps = 5;
constexpr int kQueryOps = 4;
constexpr int kBatchSize = 256;
constexpr int kStreamLen = 32;

// One deterministic workload shared by every benchmark: sizes chosen so
// the theory-only vertex set is ~10^2 and the full batch roughly doubles
// it (measured counters V_theory / V_batch report the actual values).
void SetupWorkload(ExprArena* arena, std::vector<Pd>* theory,
                   std::vector<Pd>* queries, int num_queries = kBatchSize) {
  Rng rng = MakeBenchRng(424242);
  *theory = RandomTheory(arena, &rng, kNumAttrs, kNumPds, kTheoryOps);
  *queries = RandomQueries(arena, &rng, kNumAttrs, num_queries, kQueryOps);
}

// Baseline: every query pays vertex construction + a cold closure.
void BM_ColdPerQuery(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> theory, queries;
  SetupWorkload(&arena, &theory, &queries);
  std::size_t i = 0;
  for (auto _ : state) {
    PdImplicationEngine engine(&arena, theory);
    benchmark::DoNotOptimize(engine.Implies(queries[i++ % queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdPerQuery);

// One engine answers the whole batch: a single shared closure, then bit
// tests. Engine construction is inside the timed
// region so the comparison against BM_ColdPerQuery is end-to-end.
void BM_BatchImplies(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> theory, queries;
  SetupWorkload(&arena, &theory, &queries);
  std::size_t vertices = 0;
  for (auto _ : state) {
    PdImplicationEngine engine(&arena, theory);
    std::vector<bool> verdicts = engine.BatchImplies(queries);
    benchmark::DoNotOptimize(verdicts);
    vertices = engine.stats().num_vertices;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  state.counters["V_batch"] = static_cast<double>(vertices);
}
BENCHMARK(BM_BatchImplies)->UseRealTime();

// The closure sweep alone (Prepare over every batch subexpression),
// without query-answering overhead.
void BM_ClosureOnly(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> theory, queries;
  SetupWorkload(&arena, &theory, &queries);
  std::vector<ExprId> roots;
  for (const Pd& q : queries) {
    roots.push_back(q.lhs);
    roots.push_back(q.rhs);
  }
  std::size_t passes = 0;
  for (auto _ : state) {
    PdImplicationEngine engine(&arena, theory);
    engine.Prepare(roots);
    benchmark::DoNotOptimize(engine.stats().num_arcs);
    passes = engine.stats().passes;
  }
  state.counters["passes"] = static_cast<double>(passes);
}
BENCHMARK(BM_ClosureOnly)->UseRealTime();

// Query stream, one engine: each query with fresh subexpressions extends
// V and re-closes only the dirty frontier (warm start).
void BM_IncrementalStream(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> theory, stream;
  SetupWorkload(&arena, &theory, &stream, kStreamLen);
  std::size_t incremental = 0;
  for (auto _ : state) {
    PdImplicationEngine engine(&arena, theory);
    for (const Pd& q : stream) benchmark::DoNotOptimize(engine.Implies(q));
    incremental = engine.stats().incremental_closures;
  }
  state.SetItemsProcessed(state.iterations() * kStreamLen);
  state.counters["incr_closures"] = static_cast<double>(incremental);
}
BENCHMARK(BM_IncrementalStream);

// The same stream with a fresh engine per query: every arrival pays a
// cold closure over its whole V.
void BM_ColdStream(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> theory, stream;
  SetupWorkload(&arena, &theory, &stream, kStreamLen);
  for (auto _ : state) {
    for (const Pd& q : stream) {
      PdImplicationEngine engine(&arena, theory);
      benchmark::DoNotOptimize(engine.Implies(q));
    }
  }
  state.SetItemsProcessed(state.iterations() * kStreamLen);
}
BENCHMARK(BM_ColdStream);

// Steady-state serving on the warm probe path: the closure is built over
// every query's vertices, so each query is answered by O(1) bit probes of
// the closed closure. This is the per-query cost a long-running service
// converges to.
void BM_WarmCacheQueries(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> theory, queries;
  SetupWorkload(&arena, &theory, &queries);
  PdImplicationEngine engine(&arena, theory);
  std::vector<bool> warmup = engine.BatchImplies(queries);
  benchmark::DoNotOptimize(warmup);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Implies(queries[i++ % queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WarmCacheQueries);

}  // namespace

