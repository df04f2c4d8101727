// ABL2: the partition-operation substrate, sparse reference vs dense
// kernels. The sparse path (Partition::Product/Sum) is the paper-literal
// canonical-form implementation; the dense path (DenseOps over an
// interned PartitionUniverse) is the PLI-style data path the library's
// hot loops run on. Both families run at identical sizes so the recorded
// artifact (BENCH_partition.json) exhibits the speedup directly; plus
// the L(I) closure cost as generator count grows (intrinsically
// exponential in the worst case, which is why ClosePartitions takes a
// cap).

#include <benchmark/benchmark.h>

#include "partition/dense.h"
#include "partition/eval_context.h"
#include "psem.h"
#include "util/rng.h"
#include "workloads.h"

namespace {

using namespace psem;
using bench::MakeBenchRng;

Partition RandomPartition(Rng* rng, std::size_t n, uint32_t blocks) {
  std::vector<Elem> pop(n);
  std::vector<uint32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    pop[i] = static_cast<Elem>(i);
    labels[i] = static_cast<uint32_t>(rng->Below(blocks));
  }
  return Partition::FromLabels(pop, labels);
}

DensePartition RandomDense(Rng* rng, std::size_t n, uint32_t blocks) {
  PartitionUniverse u = PartitionUniverse::Dense(n);
  return u.Densify(RandomPartition(rng, n, blocks));
}

void DefineRandomAbcd(PartitionInterpretation* interp, Rng* rng,
                      std::size_t n) {
  const char* names[] = {"A", "B", "C", "D"};
  for (const char* name : names) {
    Partition p = RandomPartition(rng, n, static_cast<uint32_t>(n / 8 + 2));
    std::unordered_map<std::string, uint32_t> naming;
    for (uint32_t bl = 0; bl < p.num_blocks(); ++bl) {
      naming[std::string(name) + "_" + std::to_string(bl)] = bl;
    }
    (void)interp->DefineAttribute(name, std::move(p), naming);
  }
}

// --- sparse reference (kept as the differential baseline) ----------------

void BM_PartitionProduct(benchmark::State& state) {
  Rng rng = MakeBenchRng(1);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Partition a = RandomPartition(&rng, n, static_cast<uint32_t>(n / 8 + 2));
  Partition b = RandomPartition(&rng, n, static_cast<uint32_t>(n / 8 + 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Partition::Product(a, b));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_PartitionProduct)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Arg(131072)->Complexity();

void BM_PartitionSum(benchmark::State& state) {
  Rng rng = MakeBenchRng(2);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Partition a = RandomPartition(&rng, n, static_cast<uint32_t>(n / 8 + 2));
  Partition b = RandomPartition(&rng, n, static_cast<uint32_t>(n / 8 + 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Partition::Sum(a, b));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_PartitionSum)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Arg(131072)->Complexity();

// --- dense kernels (the production data path) ----------------------------
// Same sizes and the same block-count profile as the sparse pair above,
// so name-for-name ratios in the JSON are the speedup.

void BM_DensePartitionProduct(benchmark::State& state) {
  Rng rng = MakeBenchRng(1);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  DensePartition a = RandomDense(&rng, n, static_cast<uint32_t>(n / 8 + 2));
  DensePartition b = RandomDense(&rng, n, static_cast<uint32_t>(n / 8 + 2));
  DenseOps ops;
  DensePartition out;
  for (auto _ : state) {
    ops.Product(a, b, &out);
    benchmark::DoNotOptimize(out.num_blocks);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DensePartitionProduct)->Arg(256)->Arg(1024)->Arg(4096)
    ->Arg(16384)->Arg(131072)->Complexity();

void BM_DensePartitionSum(benchmark::State& state) {
  Rng rng = MakeBenchRng(2);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  DensePartition a = RandomDense(&rng, n, static_cast<uint32_t>(n / 8 + 2));
  DensePartition b = RandomDense(&rng, n, static_cast<uint32_t>(n / 8 + 2));
  DenseOps ops;
  DensePartition out;
  for (auto _ : state) {
    ops.Sum(a, b, &out);
    benchmark::DoNotOptimize(out.num_blocks);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DensePartitionSum)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Arg(131072)->Complexity();

void BM_DenseStrippedProduct(benchmark::State& state) {
  // The TANE/PLI shape: refine an existing stripped partition by a
  // column. Singleton blocks vanish from the representation, so repeated
  // refinement gets cheaper as partitions fragment.
  Rng rng = MakeBenchRng(3);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  DensePartition x = RandomDense(&rng, n, static_cast<uint32_t>(n / 32 + 2));
  DensePartition col = RandomDense(&rng, n, static_cast<uint32_t>(n / 8 + 2));
  DenseOps ops;
  StrippedPartition sx, out;
  ops.Strip(x, &sx);
  for (auto _ : state) {
    ops.StrippedProduct(sx, col, &out);
    benchmark::DoNotOptimize(out.flat.data());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DenseStrippedProduct)->Arg(256)->Arg(1024)->Arg(4096)
    ->Arg(16384)->Arg(131072)->Complexity();

void BM_DenseStrippedProductRefines(benchmark::State& state) {
  // FD discovery's check "does x * col refine y?" answered without
  // building x * col. Same x and col as BM_DenseStrippedProduct; y is
  // the product itself, so the check holds and scans every cluster.
  Rng rng = MakeBenchRng(3);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  DensePartition x = RandomDense(&rng, n, static_cast<uint32_t>(n / 32 + 2));
  DensePartition col = RandomDense(&rng, n, static_cast<uint32_t>(n / 8 + 2));
  DenseOps ops;
  StrippedPartition sx;
  DensePartition y;
  ops.Strip(x, &sx);
  ops.Product(x, col, &y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.StrippedProductRefines(sx, col, y));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DenseStrippedProductRefines)->Arg(256)->Arg(1024)->Arg(4096)
    ->Arg(16384)->Arg(131072)->Complexity();

void BM_MemoizedEval(benchmark::State& state) {
  // Repeated evaluation of one expression DAG over a fixed
  // interpretation: the steady-state cost of the memoized path (epoch
  // unchanged, every subexpression a hit) vs re-deriving from scratch
  // (BM_SparseEval below).
  Rng rng = MakeBenchRng(4);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  PartitionInterpretation interp;
  DefineRandomAbcd(&interp, &rng, n);
  ExprArena arena;
  ExprId e = *arena.Parse("(A * B + C) * (B + C * D) + A * D");
  EvalContext ctx(arena, interp);
  for (auto _ : state) {
    auto r = ctx.Eval(e);
    benchmark::DoNotOptimize(r.ok());
  }
  state.counters["memo_hits"] = static_cast<double>(ctx.stats().memo_hits);
}
BENCHMARK(BM_MemoizedEval)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_SparseEval(benchmark::State& state) {
  // The paper-literal recursive reference on the same DAG: what every
  // Eval call cost before the dense/memoized path.
  Rng rng = MakeBenchRng(4);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  PartitionInterpretation interp;
  DefineRandomAbcd(&interp, &rng, n);
  ExprArena arena;
  ExprId e = *arena.Parse("(A * B + C) * (B + C * D) + A * D");
  for (auto _ : state) {
    auto r = interp.EvalSparse(arena, e);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_SparseEval)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_PartitionSumDisjointPopulations(benchmark::State& state) {
  Rng rng = MakeBenchRng(5);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Elem> pop_a(n), pop_b(n);
  std::vector<uint32_t> lab_a(n), lab_b(n);
  for (std::size_t i = 0; i < n; ++i) {
    pop_a[i] = static_cast<Elem>(i);
    pop_b[i] = static_cast<Elem>(n + i);
    lab_a[i] = static_cast<uint32_t>(rng.Below(n / 4 + 1));
    lab_b[i] = static_cast<uint32_t>(rng.Below(n / 4 + 1));
  }
  Partition a = Partition::FromLabels(pop_a, lab_a);
  Partition b = Partition::FromLabels(pop_b, lab_b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Partition::Sum(a, b));
  }
}
BENCHMARK(BM_PartitionSumDisjointPopulations)->Arg(1024)->Arg(4096);

void BM_CanonicalInterpretation(benchmark::State& state) {
  std::size_t rows = static_cast<std::size_t>(state.range(0));
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B", "C", "D"});
  Rng rng = MakeBenchRng(6);
  for (std::size_t i = 0; i < rows; ++i) {
    db.relation(ri).AddRow(&db.symbols(),
                           {"a" + std::to_string(rng.Below(rows / 4 + 1)),
                            "b" + std::to_string(rng.Below(rows / 4 + 1)),
                            "c" + std::to_string(rng.Below(rows / 4 + 1)),
                            "d" + std::to_string(rng.Below(rows / 4 + 1))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CanonicalInterpretation(db, db.relation(ri)).ok());
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_CanonicalInterpretation)->Arg(64)->Arg(256)->Arg(1024)
    ->Complexity();

void BM_PartitionClosureLattice(benchmark::State& state) {
  // Generators over a fixed 8-element population; closure size grows fast
  // with generator count.
  Rng rng = MakeBenchRng(7);
  int gens = static_cast<int>(state.range(0));
  std::vector<Partition> atoms;
  std::vector<std::string> names;
  for (int i = 0; i < gens; ++i) {
    atoms.push_back(RandomPartition(&rng, 8, 3));
    names.push_back("G" + std::to_string(i));
  }
  for (auto _ : state) {
    auto r = ClosePartitions(atoms, names, /*max_elements=*/100000);
    benchmark::DoNotOptimize(r.ok());
    if (r.ok()) state.counters["lattice_size"] = static_cast<double>(r->lattice.size());
  }
}
BENCHMARK(BM_PartitionClosureLattice)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

}  // namespace
