// Extension-layer benchmarks: proof extraction vs the bare verdict,
// bounded model finding, identity-preserving simplification, the RR
// rewrite search (Lemma 9.1 made executable), Armstrong relation
// construction, and the semilattice word problem — the costs a user pays
// for explanations and certificates on top of Algorithm ALG.

#include <benchmark/benchmark.h>

#include "psem.h"
#include "workloads.h"

namespace {

using namespace psem;
using namespace psem::bench;

void BM_ProofExtractionChain(benchmark::State& state) {
  ExprArena arena;
  int n = static_cast<int>(state.range(0));
  std::vector<Pd> e = ChainTheory(&arena, n);
  ExprId from = arena.Attr("A0");
  ExprId to = arena.Attr("A" + std::to_string(n - 1));
  for (auto _ : state) {
    ProvenanceEngine prover(&arena, e);
    auto proof = prover.ProveLeq(from, to);
    benchmark::DoNotOptimize(proof.ok());
    if (proof.ok()) state.counters["proof_steps"] =
        static_cast<double>(proof->steps.size());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ProofExtractionChain)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Complexity();

void BM_VerdictOnlyChain(benchmark::State& state) {
  ExprArena arena;
  int n = static_cast<int>(state.range(0));
  std::vector<Pd> e = ChainTheory(&arena, n);
  ExprId from = arena.Attr("A0");
  ExprId to = arena.Attr("A" + std::to_string(n - 1));
  for (auto _ : state) {
    PdImplicationEngine engine(&arena, e);
    benchmark::DoNotOptimize(engine.ImpliesLeq(from, to));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_VerdictOnlyChain)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_ModelFinderCounterexample(benchmark::State& state) {
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A <= B")};
  Pd query = *arena.ParsePd("B <= A");
  std::size_t max_pop = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindCounterModel(arena, e, query, max_pop));
  }
}
BENCHMARK(BM_ModelFinderCounterexample)->Arg(2)->Arg(3)->Arg(4);

void BM_ModelFinderExhaustiveFailure(benchmark::State& state) {
  // Implied query: the finder must exhaust the whole space.
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A <= B"), *arena.ParsePd("B <= C")};
  Pd query = *arena.ParsePd("A <= C");
  std::size_t max_pop = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindCounterModel(arena, e, query, max_pop));
  }
}
BENCHMARK(BM_ModelFinderExhaustiveFailure)->Arg(2)->Arg(3)->Arg(4);

void BM_SimplifyRandomExpr(benchmark::State& state) {
  ExprArena arena;
  Rng rng = MakeBenchRng(11);
  int ops = static_cast<int>(state.range(0));
  std::vector<ExprId> exprs;
  for (int i = 0; i < 32; ++i) {
    exprs.push_back(RandomExpr(&arena, &rng, 3, ops));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimplifyExpr(&arena, exprs[i++ % exprs.size()]));
  }
  state.SetComplexityN(ops);
}
BENCHMARK(BM_SimplifyRandomExpr)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Complexity();

void BM_RewriteSearchProjection(benchmark::State& state) {
  for (auto _ : state) {
    ExprArena arena;
    std::vector<Pd> e = {*arena.ParsePd("A <= B"), *arena.ParsePd("A <= C")};
    auto seq = FindRewriteSequence(&arena, *arena.Parse("A"),
                                   *arena.Parse("B*C"), e);
    benchmark::DoNotOptimize(seq.ok());
  }
}
BENCHMARK(BM_RewriteSearchProjection)->Unit(benchmark::kMicrosecond);

void BM_ArmstrongConstruction(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Universe u;
  Rng rng = MakeBenchRng(12);
  FdTheory t(&u);
  auto fds = RandomFds(&u, &rng, n, n, 2);
  for (const Fd& fd : fds) t.Add(fd);
  AttrSet scheme(u.size());
  scheme.SetAll();
  for (auto _ : state) {
    Database db;
    auto r = BuildArmstrongRelation(t, scheme, &db);
    benchmark::DoNotOptimize(r.ok());
    if (r.ok()) state.counters["rows"] =
        static_cast<double>(db.relation(*r).size());
  }
}
BENCHMARK(BM_ArmstrongConstruction)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_SemigroupNormalForm(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Universe u;
  Rng rng = MakeBenchRng(13);
  auto fds = RandomFds(&u, &rng, n, 2 * n, 2);
  IcSemigroupTheory sg = IcSemigroupTheory::FromFds(&u, fds);
  AttrSet x(u.size());
  x.Set(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sg.NormalForm(x));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SemigroupNormalForm)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_BcnfDecomposition(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Universe u;
  Rng rng = MakeBenchRng(14);
  FdTheory t(&u);
  for (const Fd& fd : RandomFds(&u, &rng, n, n, 2)) t.Add(fd);
  AttrSet scheme(u.size());
  scheme.SetAll();
  for (auto _ : state) {
    auto parts = DecomposeBcnf(t, scheme);
    benchmark::DoNotOptimize(parts.size());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BcnfDecomposition)->Arg(4)->Arg(8)->Arg(16)->Complexity();

void BM_FdDiscovery(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  Database db;
  Rng rng = MakeBenchRng(15);
  std::size_t ri = db.AddRelation("R", {"A", "B", "C", "D", "E"});
  for (int i = 0; i < rows; ++i) {
    db.relation(ri).AddRow(&db.symbols(),
                           {"a" + std::to_string(rng.Below(rows / 4 + 2)),
                            "b" + std::to_string(rng.Below(4)),
                            "c" + std::to_string(rng.Below(4)),
                            "d" + std::to_string(rng.Below(8)),
                            "e" + std::to_string(rng.Below(2))});
  }
  FdDiscoveryOptions options;
  options.max_lhs_size = 3;
  for (auto _ : state) {
    auto fds = DiscoverFds(db, db.relation(ri), options);
    benchmark::DoNotOptimize(fds.ok());
    if (fds.ok()) state.counters["fds"] = static_cast<double>(fds->size());
  }
  state.SetComplexityN(rows);
}
BENCHMARK(BM_FdDiscovery)->Arg(32)->Arg(128)->Arg(512)->Complexity();

void BM_PdPatternDiscovery(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db;
  Graph g = Graph::Random(n, 2 * n, 16);
  std::size_t ri = EncodeGraphRelation(g, &db);
  for (auto _ : state) {
    auto patterns = DiscoverPdPatterns(db, db.relation(ri));
    benchmark::DoNotOptimize(patterns.ok());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_PdPatternDiscovery)->Arg(32)->Arg(128)->Arg(512)->Complexity();

// CSV text -> Relation: the set-up step in front of discovery. Each
// iteration loads into a fresh Database, which is freed untimed.
void BM_LoadCsvRelation(benchmark::State& state) {
  Rng rng = MakeBenchRng(16);
  const std::string csv = PlantedCsv(&rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto db = std::make_unique<Database>();
    auto ri = LoadCsvRelation(csv, db.get());
    if (!ri.ok()) {
      state.SkipWithError(ri.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(db->relation(*ri).size());
    state.counters["rows"] = static_cast<double>(db->relation(*ri).size());
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_LoadCsvRelation)->Arg(50000)->Unit(benchmark::kMillisecond);

}  // namespace

