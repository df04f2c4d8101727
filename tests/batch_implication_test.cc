// Tests for the batched/incremental service layer on top of Algorithm ALG
// (core/implication.h):
//   1. differential: BatchImplies agrees with the literal rule-by-rule
//      ProvenanceEngine on 500 random constraint sets;
//   2. incremental-vs-cold: a query stream answered with warm-started
//      closures agrees, query by query and arc by arc, with fresh cold
//      engines;
//   3. batch semantics and repeated queries: a query over V on a closed
//      closure is answered by bit tests, with no further closure.

#include <gtest/gtest.h>

#include <vector>

#include "core/implication.h"
#include "core/proof.h"
#include "lattice/expr.h"
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

std::vector<Pd> RandomTheory(ExprArena* arena, Rng* rng, int num_attrs,
                             int num_pds, int max_ops) {
  std::vector<Pd> pds;
  for (int i = 0; i < num_pds; ++i) {
    ExprId l = RandomExpr(arena, rng, num_attrs,
                          static_cast<int>(rng->Below(max_ops + 1)));
    ExprId r = RandomExpr(arena, rng, num_attrs,
                          static_cast<int>(rng->Below(max_ops + 1)));
    pds.push_back(rng->Chance(1, 2) ? Pd::Eq(l, r) : Pd::Leq(l, r));
  }
  return pds;
}

Pd RandomQuery(ExprArena* arena, Rng* rng, int num_attrs, int max_ops) {
  ExprId l = RandomExpr(arena, rng, num_attrs,
                        1 + static_cast<int>(rng->Below(max_ops)));
  ExprId r = RandomExpr(arena, rng, num_attrs,
                        1 + static_cast<int>(rng->Below(max_ops)));
  return rng->Chance(1, 2) ? Pd::Eq(l, r) : Pd::Leq(l, r);
}

// --- 1. differential against the naive reference -------------------------------

TEST(BatchImpliesDifferentialTest, AgreesWithNaiveOn500RandomConstraintSets) {
  Rng rng(20250807);
  for (int set = 0; set < 500; ++set) {
    ExprArena arena;
    std::vector<Pd> e = RandomTheory(&arena, &rng, 3, 2, 2);
    std::vector<Pd> queries;
    for (int q = 0; q < 2; ++q) {
      queries.push_back(RandomQuery(&arena, &rng, 3, 3));
    }
    PdImplicationEngine engine(&arena, e);
    std::vector<bool> fast = engine.BatchImplies(queries);
    ASSERT_EQ(fast.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      bool slow = ProvenanceEngine(&arena, e).Prove(queries[q]).ok();
      ASSERT_EQ(fast[q], slow)
          << "set " << set << " query " << arena.ToString(queries[q]);
    }
  }
}

// --- 2. incremental closure == cold closure -------------------------------------

TEST(IncrementalClosureTest, QueryStreamMatchesColdRecompute) {
  Rng rng(42);
  ExprArena arena;
  std::vector<Pd> e = RandomTheory(&arena, &rng, 4, 4, 3);
  PdImplicationEngine warm(&arena, e);
  for (int q = 0; q < 40; ++q) {
    Pd query = RandomQuery(&arena, &rng, 4, 4);
    // A fresh engine closes from scratch over exactly the same V.
    PdImplicationEngine cold(&arena, e);
    ASSERT_EQ(warm.Implies(query), cold.Implies(query))
        << arena.ToString(query);
  }
  // The stream above re-closed incrementally at least once (fresh
  // subexpressions are near-certain over 40 random queries).
  EXPECT_GE(warm.stats().incremental_closures, 1u);
  EXPECT_EQ(warm.stats().cold_closures, 1u);
}

TEST(IncrementalClosureTest, FinalClosureIdenticalToColdOverSameVertices) {
  Rng rng(77);
  ExprArena arena;
  std::vector<Pd> e = RandomTheory(&arena, &rng, 4, 5, 3);
  // Warm path: feed queries one at a time.
  std::vector<Pd> queries;
  for (int q = 0; q < 12; ++q) queries.push_back(RandomQuery(&arena, &rng, 4, 3));
  PdImplicationEngine warm(&arena, e);
  std::vector<ExprId> roots;
  for (const Pd& q : queries) {
    warm.Implies(q);
    roots.push_back(q.lhs);
    roots.push_back(q.rhs);
  }
  warm.Prepare(roots);
  // Cold path: everything at once.
  PdImplicationEngine cold(&arena, e);
  cold.Prepare(roots);
  ASSERT_EQ(warm.stats().num_vertices, cold.stats().num_vertices);
  EXPECT_EQ(warm.stats().num_arcs, cold.stats().num_arcs);
  for (ExprId a : roots) {
    for (ExprId b : roots) {
      ASSERT_EQ(warm.LeqInClosure(a, b), cold.LeqInClosure(a, b))
          << arena.ToString(a) << " <= " << arena.ToString(b);
    }
  }
}

// --- 3. batch semantics and repeated queries ------------------------------------

TEST(BatchImpliesTest, MatchesSequentialImpliesAndHandlesDuplicates) {
  Rng rng(9);
  ExprArena arena;
  std::vector<Pd> e = RandomTheory(&arena, &rng, 4, 4, 3);
  std::vector<Pd> queries;
  for (int q = 0; q < 16; ++q) queries.push_back(RandomQuery(&arena, &rng, 4, 3));
  // Duplicate some queries: dedup must not change answers or order.
  queries.push_back(queries[0]);
  queries.push_back(queries[7]);

  PdImplicationEngine batch(&arena, e);
  std::vector<bool> got = batch.BatchImplies(queries);

  PdImplicationEngine seq(&arena, e);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(got[i], seq.Implies(queries[i]))
        << "query " << i << ": " << arena.ToString(queries[i]);
  }
  EXPECT_EQ(got[queries.size() - 2], got[0]);
  EXPECT_EQ(got[queries.size() - 1], got[7]);
  // The whole batch used one closure (all vertices added up front).
  EXPECT_EQ(batch.stats().cold_closures + batch.stats().incremental_closures,
            1u);
}

TEST(BatchImpliesTest, EmptyBatchIsANoOp) {
  ExprArena arena;
  PdImplicationEngine engine(&arena, {*arena.ParsePd("A <= B")});
  EXPECT_TRUE(engine.BatchImplies({}).empty());
}

TEST(QueryCacheTest, RepeatedQueriesHitTheCache) {
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A <= B"), *arena.ParsePd("B <= C")};
  PdImplicationEngine engine(&arena, e);
  Pd q = *arena.ParsePd("A <= C");
  EXPECT_TRUE(engine.Implies(q));
  std::size_t closures_after_first =
      engine.stats().cold_closures + engine.stats().incremental_closures;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(engine.Implies(q));
  // Repeats are answered by the closed closure's bit tests, with no
  // further closure.
  EXPECT_EQ(engine.stats().cold_closures + engine.stats().incremental_closures,
            closures_after_first);
}

TEST(QueryCacheTest, EvictionKeepsAnswersCorrect) {
  ExprArena arena;
  std::vector<Pd> e;
  for (int i = 0; i + 1 < 12; ++i) {
    e.push_back(Pd::Leq(arena.Attr("A" + std::to_string(i)),
                        arena.Attr("A" + std::to_string(i + 1))));
  }
  // The full 12x12 grid, twice: the second round is answered from the
  // closure the first round left closed.
  PdImplicationEngine engine(&arena, e);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 12; ++i) {
      for (int j = 0; j < 12; ++j) {
        ExprId a = arena.Attr("A" + std::to_string(i));
        ExprId b = arena.Attr("A" + std::to_string(j));
        ASSERT_EQ(engine.ImpliesLeq(a, b), i <= j)
            << "round " << round << ": A" << i << " <= A" << j;
      }
    }
  }
}

// --- 4. the sparse<->dense mode switch -----------------------------------------

// Force every eligible round through the blocked 64-row-tile kernel by
// dropping the row floor to 1 and the per-row density requirement to its
// minimum: the resulting closure matrix must be identical — vertex count,
// arc count, and full verdict grid — to the default (density-gated)
// engine. Two shapes: a saturating, equation-heavy theory (|V| ~ 300,
// where one naive call takes seconds) and a smaller one whose grid the
// literal rule-by-rule reference also decides.
TEST(DenseModeTest, BlockedDenseRoundsMatchSerialAndNaiveClosure) {
  struct Shape {
    int num_pds, max_ops;
    bool check_naive;
  };
  for (Shape shape : {Shape{48, 8, false}, Shape{12, 4, true}}) {
    Rng rng(31337);
    ExprArena arena;
    std::vector<Pd> e =
        RandomTheory(&arena, &rng, 6, shape.num_pds, shape.max_ops);
    PdImplicationEngine forced(&arena, e,
                               EngineOptions{.dense_min_rows = 1,
                                             .dense_inv_density = SIZE_MAX});
    PdImplicationEngine serial(&arena, e);
    forced.Prepare({});
    serial.Prepare({});
    EXPECT_GE(forced.stats().dense_rounds, 1u);
    ASSERT_EQ(forced.stats().num_vertices, serial.stats().num_vertices);
    ASSERT_EQ(forced.stats().num_arcs, serial.stats().num_arcs);
    // Verdicts agree on the full attribute grid.
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 6; ++j) {
        ExprId a = arena.Attr(std::string(1, static_cast<char>('A' + i)));
        ExprId b = arena.Attr(std::string(1, static_cast<char>('A' + j)));
        ASSERT_EQ(forced.LeqInClosure(a, b), serial.LeqInClosure(a, b));
        if (shape.check_naive) {
          ASSERT_EQ(forced.LeqInClosure(a, b),
                    ProvenanceEngine(&arena, e).Prove(Pd::Leq(a, b)).ok())
              << "A" << i << " <= A" << j;
        }
      }
    }
  }
}

// The forced-dense trajectory must also match the naive rule-by-rule
// reference verdict-for-verdict on many small random theories.
TEST(DenseModeTest, ForcedDenseMatchesNaiveOnRandomTheories) {
  Rng rng(4242);
  for (int set = 0; set < 60; ++set) {
    ExprArena arena;
    std::vector<Pd> e = RandomTheory(&arena, &rng, 3, 2, 2);
    PdImplicationEngine forced(&arena, e,
                               EngineOptions{.dense_min_rows = 1,
                                             .dense_inv_density = SIZE_MAX});
    for (int q = 0; q < 3; ++q) {
      Pd query = RandomQuery(&arena, &rng, 3, 3);
      ASSERT_EQ(forced.Implies(query),
                ProvenanceEngine(&arena, e).Prove(query).ok())
          << "set " << set << " query " << arena.ToString(query);
    }
  }
}

// Tiny theories never cross the 64-dirty-row floor: every round must be
// sparse, so chain-like workloads keep their delta-proportional cost.
TEST(DenseModeTest, SmallClosuresStaySparse) {
  ExprArena arena;
  std::vector<Pd> e;
  for (int i = 0; i + 1 < 16; ++i) {
    e.push_back(Pd::Leq(arena.Attr("A" + std::to_string(i)),
                        arena.Attr("A" + std::to_string(i + 1))));
  }
  PdImplicationEngine engine(&arena, e);
  engine.Prepare({});
  EXPECT_EQ(engine.stats().dense_rounds, 0u);
  EXPECT_GE(engine.stats().sparse_rounds, 1u);
}

TEST(AlgStatsTest, TrajectoryFieldsArePopulated) {
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A = A*B"), *arena.ParsePd("B = B*C")};
  PdImplicationEngine engine(&arena, e);
  EXPECT_TRUE(engine.Implies(*arena.ParsePd("A <= C")));
  const AlgStats& s = engine.stats();
  EXPECT_GT(s.num_vertices, 0u);
  EXPECT_GT(s.num_arcs, 0u);
  EXPECT_EQ(s.passes, s.pass_arc_delta.size());
  EXPECT_GE(s.closure_seconds, 0.0);
  // The last pass confirms the fixpoint: it adds nothing.
  ASSERT_FALSE(s.pass_arc_delta.empty());
  EXPECT_EQ(s.pass_arc_delta.back(), 0u);
}

}  // namespace
}  // namespace psem
