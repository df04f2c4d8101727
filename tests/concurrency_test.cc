// Concurrency tests, run under -fsanitize=thread in CI. The library
// starts no threads of its own; these check that its const read paths —
// LeqInClosure on a prepared engine, the const-qualified
// WhitmanIterative decider, and Eval/Satisfies on a const partition
// interpretation — are safe to share across caller threads.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/implication.h"
#include "lattice/expr.h"
#include "lattice/whitman.h"
#include "partition/interpretation.h"
#include "partition/partition.h"
#include "util/rng.h"

namespace psem {
namespace {

ExprId RandomExpr(ExprArena* arena, Rng* rng, int num_attrs, int ops) {
  if (ops == 0) {
    return arena->Attr(
        std::string(1, static_cast<char>('A' + rng->Below(num_attrs))));
  }
  int left = static_cast<int>(rng->Below(static_cast<uint64_t>(ops)));
  ExprId l = RandomExpr(arena, rng, num_attrs, left);
  ExprId r = RandomExpr(arena, rng, num_attrs, ops - 1 - left);
  return rng->Chance(1, 2) ? arena->Product(l, r) : arena->Sum(l, r);
}

// --- concurrent const reads ------------------------------------------------------

TEST(ConcurrentReadTest, PreparedEngineServesManyReaderThreads) {
  ExprArena arena;
  std::vector<Pd> e;
  const int n = 32;
  for (int i = 0; i + 1 < n; ++i) {
    e.push_back(Pd::Leq(arena.Attr("A" + std::to_string(i)),
                        arena.Attr("A" + std::to_string(i + 1))));
  }
  PdImplicationEngine engine(&arena, e);
  std::vector<ExprId> attrs;
  for (int i = 0; i < n; ++i) attrs.push_back(arena.Attr("A" + std::to_string(i)));
  engine.Prepare(attrs);
  // A0 <= ... <= A31 closes to exactly the n*(n+1)/2 order arcs.
  ASSERT_EQ(engine.stats().num_arcs,
            static_cast<std::size_t>(n) * (n + 1) / 2);

  // LeqInClosure is const: four threads read the same closure with no
  // external synchronization.
  const PdImplicationEngine& shared = engine;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int k = 0; k < 5000; ++k) {
        int i = static_cast<int>(rng.Below(n));
        int j = static_cast<int>(rng.Below(n));
        bool got = shared.LeqInClosure(attrs[i], attrs[j]);
        if (got != (i <= j)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentReadTest, ConstWhitmanIterativeIsShareable) {
  // WhitmanIterative::Leq is const and keeps all state on the caller's
  // stack, so one decider over one const arena serves any number of
  // threads. (WhitmanMemo, by contrast, mutates its memo table and must
  // not be shared without locking — see lattice/whitman.h.)
  ExprArena arena;
  Rng setup_rng(55);
  struct Case {
    ExprId p, q;
    bool expect;
  };
  std::vector<Case> cases;
  WhitmanMemo reference(&arena);
  for (int i = 0; i < 60; ++i) {
    ExprId p = RandomExpr(&arena, &setup_rng, 3, 1 + i % 5);
    ExprId q = RandomExpr(&arena, &setup_rng, 3, 1 + (i + 1) % 5);
    cases.push_back({p, q, reference.Leq(p, q)});
  }
  const WhitmanIterative decider(&arena);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (const Case& c : cases) {
        if (decider.Leq(c.p, c.q) != c.expect) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentReadTest, ConstInterpretationEvalIsShareable) {
  // Eval and Satisfies keep their memo in a per-call EvalContext, so one
  // const interpretation serves any number of threads with no lock.
  Rng setup_rng(77);
  PartitionInterpretation interp;
  const std::size_t n = 64;
  std::vector<Elem> pop(n);
  for (std::size_t i = 0; i < n; ++i) pop[i] = static_cast<Elem>(i);
  for (char name : {'A', 'B', 'C', 'D'}) {
    std::vector<uint32_t> labels(n);
    for (auto& l : labels) l = static_cast<uint32_t>(setup_rng.Below(5));
    Partition p = Partition::FromLabels(pop, labels);
    std::unordered_map<std::string, uint32_t> naming;
    for (uint32_t b = 0; b < p.num_blocks(); ++b) {
      naming[std::string(1, name) + std::to_string(b)] = b;
    }
    ASSERT_TRUE(
        interp.DefineAttribute(std::string(1, name), std::move(p), naming)
            .ok());
  }
  ExprArena arena;
  struct Case {
    ExprId e;
    Partition meaning;
    Pd pd;
    bool holds;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 40; ++i) {
    ExprId e = RandomExpr(&arena, &setup_rng, 4, 1 + i % 4);
    ExprId f = RandomExpr(&arena, &setup_rng, 4, 1 + (i + 2) % 4);
    Partition pe = *interp.EvalSparse(arena, e);
    Partition pf = *interp.EvalSparse(arena, f);
    Pd pd = i % 2 == 0 ? Pd::Eq(e, f) : Pd::Leq(e, f);
    bool holds = i % 2 == 0 ? pe == pf : pe == Partition::Product(pe, pf);
    cases.push_back({e, std::move(pe), pd, holds});
  }
  const PartitionInterpretation& shared = interp;
  const ExprArena& shared_arena = arena;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        for (const Case& c : cases) {
          Result<Partition> got = shared.Eval(shared_arena, c.e);
          if (!got.ok() || *got != c.meaning) mismatches.fetch_add(1);
          Result<bool> sat = shared.Satisfies(shared_arena, c.pd);
          if (!sat.ok() || *sat != c.holds) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace psem
