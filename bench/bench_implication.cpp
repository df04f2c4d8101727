// THM9 + ABL1: PD implication is polynomial (Theorem 9). Measures
// Algorithm ALG (bit-parallel engine) against the literal rule-by-rule
// closure (ProvenanceEngine, the reference the tests differential-check
// against) across growing vertex counts n = |V|. The paper claims a
// straightforward implementation is O(n^4); the measured log-log slope of
// the engine should be comfortably polynomial (<= ~4), with the literal
// engine far more expensive at equal sizes. BM_NaiveRulesRandomTheory
// keeps its name so recorded BENCH_implication.json rows still compare.

#include <benchmark/benchmark.h>

#include <memory>

#include "psem.h"
#include "workloads.h"

namespace {

using namespace psem;
using namespace psem::bench;

// Random theory sized so that |V| grows linearly with the range arg.
void SetupTheory(int size, ExprArena* arena, std::vector<Pd>* pds, Pd* query) {
  Rng rng = MakeBenchRng(1234);
  *pds = RandomTheory(arena, &rng, /*num_attrs=*/8, /*num_pds=*/size,
                      /*max_ops=*/4);
  ExprId l = RandomExpr(arena, &rng, 8, 4);
  ExprId r = RandomExpr(arena, &rng, 8, 4);
  *query = Pd::Leq(l, r);
}

void BM_AlgEngineRandomTheory(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> pds;
  Pd query;
  SetupTheory(static_cast<int>(state.range(0)), &arena, &pds, &query);
  std::size_t vertices = 0;
  for (auto _ : state) {
    PdImplicationEngine engine(&arena, pds);
    benchmark::DoNotOptimize(engine.Implies(query));
    vertices = engine.stats().num_vertices;
  }
  state.counters["V"] = static_cast<double>(vertices);
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_AlgEngineRandomTheory)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Arg(128)->Complexity();

void BM_NaiveRulesRandomTheory(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> pds;
  Pd query;
  SetupTheory(static_cast<int>(state.range(0)), &arena, &pds, &query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProvenanceEngine(&arena, pds).Prove(query).ok());
  }
}
BENCHMARK(BM_NaiveRulesRandomTheory)->Arg(4)->Arg(8)->Arg(16);

// Chain theories: derives a quadratic number of order consequences.
void BM_AlgEngineChain(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> pds = ChainTheory(&arena, static_cast<int>(state.range(0)));
  Pd query = Pd::Leq(arena.Attr("A0"),
                     arena.Attr("A" + std::to_string(state.range(0) - 1)));
  for (auto _ : state) {
    PdImplicationEngine engine(&arena, pds);
    bool implied = engine.Implies(query);
    benchmark::DoNotOptimize(implied);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AlgEngineChain)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Complexity();

// --- closure-scaling workloads (delta-closure trajectory) -------------------
//
// Two families that bracket the semi-naive engine's operating envelope,
// closure time only (engine construction + Prepare, no query answering):
//
//  * sparse chain theories — the FPD chain A0 <= A1 <= ... <= A(n-1).
//    Per-pass arc deltas are tiny relative to the matrix, which is
//    exactly the shape where the worklist/delta discipline should win
//    (the old sweeps rescanned all n rows and re-counted/re-transposed
//    the whole matrix every pass).
//
//  * dense random theories — equation-heavy random PDs over few
//    attributes; the closure saturates and the engine's blocked-dense
//    endgame carries most passes. The target here is "no regression",
//    not speedup.
//
// Committed numbers live in BENCH_implication.json; the delta-closure
// before/after comparison is recorded in docs/performance.md.

void BM_ClosureSparseChain(benchmark::State& state) {
  ExprArena arena;
  const int n = static_cast<int>(state.range(0));
  std::vector<Pd> pds = ChainTheory(&arena, n);
  std::size_t arcs = 0, passes = 0;
  for (auto _ : state) {
    PdImplicationEngine engine(&arena, pds);
    engine.Prepare({});
    benchmark::DoNotOptimize(engine.stats().num_arcs);
    arcs = engine.stats().num_arcs;
    passes = engine.stats().passes;
  }
  state.counters["V"] = static_cast<double>(n);
  state.counters["arcs"] = static_cast<double>(arcs);
  state.counters["passes"] = static_cast<double>(passes);
  state.SetComplexityN(n);
}
BENCHMARK(BM_ClosureSparseChain)
    ->Arg(512)->Arg(2048)->Arg(4096)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

void BM_ClosureDenseRandom(benchmark::State& state) {
  ExprArena arena;
  Rng rng = MakeBenchRng(7777);
  const int target = static_cast<int>(state.range(0));
  // Equation-heavy random theory over few attributes: |V| tracks the
  // range arg (reported as the V counter) and the closure saturates.
  std::vector<Pd> pds =
      RandomTheory(&arena, &rng, /*num_attrs=*/6, /*num_pds=*/target / 8,
                   /*max_ops=*/8);
  std::size_t vertices = 0, arcs = 0;
  for (auto _ : state) {
    PdImplicationEngine engine(&arena, pds);
    engine.Prepare({});
    benchmark::DoNotOptimize(engine.stats().num_arcs);
    vertices = engine.stats().num_vertices;
    arcs = engine.stats().num_arcs;
  }
  state.counters["V"] = static_cast<double>(vertices);
  state.counters["arcs"] = static_cast<double>(arcs);
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_ClosureDenseRandom)
    ->Arg(512)->Arg(2048)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// The write path on a closed chain: one chain-extending AddConstraint
// (A(top) <= A(top+1), a new top vertex) plus Prepare({}) per iteration.
// The new arc reaches every one of the ~n predecessors of the old top,
// which is what made one write cost more than the cold closure of the
// whole chain before the backward join stopped re-pushing it. The engine
// is rebuilt outside the timed region every kRebuildEvery writes, so the
// chain never outgrows its range arg by more than that.
void BM_IncrementalChainWrite(benchmark::State& state) {
  constexpr int kRebuildEvery = 32;
  const int n = static_cast<int>(state.range(0));
  ExprArena arena;
  std::vector<Pd> pds = ChainTheory(&arena, n);
  std::unique_ptr<PdImplicationEngine> engine;
  auto attr = [&](int k) {
    std::string name = "A";
    name += std::to_string(k);
    return arena.Attr(name);
  };
  int top = 0;
  std::size_t arcs = 0;
  for (auto _ : state) {
    if (top == 0 || top - (n - 1) >= kRebuildEvery) {
      state.PauseTiming();
      engine = std::make_unique<PdImplicationEngine>(&arena, pds);
      engine->Prepare({});
      top = n - 1;
      state.ResumeTiming();
    }
    engine->AddConstraint(Pd::Leq(attr(top), attr(top + 1)));
    engine->Prepare({});
    ++top;
    benchmark::DoNotOptimize(engine->stats().num_arcs);
    arcs = engine->stats().num_arcs;
  }
  state.counters["arcs"] = static_cast<double>(arcs);
  state.SetComplexityN(n);
}
BENCHMARK(BM_IncrementalChainWrite)->Arg(1024)->Arg(2048)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// Repeated queries against one prepared engine (the amortized mode).
void BM_AlgEnginePreparedQueries(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> pds = ChainTheory(&arena, 64);
  PdImplicationEngine engine(&arena, pds);
  // Prepare once with all attributes.
  std::vector<ExprId> attrs;
  for (int i = 0; i < 64; ++i) attrs.push_back(arena.Attr("A" + std::to_string(i)));
  engine.Prepare(attrs);
  Rng rng = MakeBenchRng(5);
  for (auto _ : state) {
    ExprId a = attrs[rng.Below(64)];
    ExprId b = attrs[rng.Below(64)];
    benchmark::DoNotOptimize(engine.LeqInClosure(a, b));
  }
}
BENCHMARK(BM_AlgEnginePreparedQueries);

}  // namespace

