// Memo-correctness tests for the memoized evaluation path (EvalContext +
// PartitionInterpretation::Eval): hit/miss accounting, epoch-based
// invalidation (mutating the interpretation must never serve a stale
// partition), no memo outliving the arena it was built from, LRU
// bounding, ExecContext governance (abort keeps partial stats and leaves
// the engine reusable), and differential agreement of the memoized path
// with EvalSparse on random DAGs.

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "lattice/expr.h"
#include "partition/eval_context.h"
#include "partition/interpretation.h"
#include "partition/partition.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace psem {
namespace {

// Defines `name` as a partition of {0..n-1} given by labels, with one
// fresh symbol per block.
void Define(PartitionInterpretation* interp, const std::string& name,
            std::size_t n, const std::vector<uint32_t>& labels) {
  std::vector<Elem> pop(n);
  for (std::size_t i = 0; i < n; ++i) pop[i] = static_cast<Elem>(i);
  Partition p = Partition::FromLabels(pop, labels);
  std::unordered_map<std::string, uint32_t> naming;
  for (uint32_t b = 0; b < p.num_blocks(); ++b) {
    naming[name + "_" + std::to_string(b)] = b;
  }
  ASSERT_TRUE(interp->DefineAttribute(name, std::move(p), naming).ok());
}

// A small standard interpretation over {0..5}.
void DefineAbc(PartitionInterpretation* interp) {
  Define(interp, "A", 6, {0, 0, 1, 1, 2, 2});
  Define(interp, "B", 6, {0, 1, 0, 1, 0, 1});
  Define(interp, "C", 6, {0, 0, 0, 1, 1, 1});
}

// The memo holds iterators into the context's own LRU list; a copy would
// point into its source's list and dangle once the source is gone.
static_assert(!std::is_copy_constructible_v<EvalContext>);
static_assert(!std::is_copy_assignable_v<EvalContext>);

TEST(EvalMemoTest, HitMissCountersOnSharedDag) {
  PartitionInterpretation interp;
  DefineAbc(&interp);
  ExprArena arena;
  ExprId ab = arena.Product(arena.Attr("A"), arena.Attr("B"));
  ExprId root = arena.Sum(ab, ab);  // hash-consed: ab appears once
  EvalContext ctx(arena, interp);

  Result<Partition> r1 = ctx.Eval(root);
  ASSERT_TRUE(r1.ok());
  // Distinct nodes: A, B, A*B, (A*B)+(A*B) — all cold.
  EXPECT_EQ(ctx.stats().memo_misses, 4u);
  EXPECT_EQ(ctx.stats().memo_hits, 0u);

  Result<Partition> r2 = ctx.Eval(root);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
  // Second evaluation is served at the root.
  EXPECT_EQ(ctx.stats().memo_misses, 4u);
  EXPECT_EQ(ctx.stats().memo_hits, 1u);

  // A sibling expression reuses the shared subtree.
  ExprId root2 = arena.Product(ab, arena.Attr("C"));
  Result<Partition> r3 = ctx.Eval(root2);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(ctx.stats().memo_hits, 2u);  // ab served from memo
  EXPECT_EQ(*r3, *interp.EvalSparse(arena, root2));
}

TEST(EvalMemoTest, MutationNeverServesStaleValue) {
  PartitionInterpretation interp;
  Define(&interp, "A", 4, {0, 0, 1, 1});
  Define(&interp, "B", 4, {0, 1, 0, 1});
  ExprArena arena;
  ExprId e = arena.Product(arena.Attr("A"), arena.Attr("B"));
  EvalContext ctx(arena, interp);

  uint64_t epoch_before = interp.epoch();
  Result<Partition> before = ctx.Eval(e);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, *interp.EvalSparse(arena, e));

  // Redefine B to the one-block partition: A*B becomes A.
  Define(&interp, "B", 4, {0, 0, 0, 0});
  EXPECT_GT(interp.epoch(), epoch_before);

  Result<Partition> after = ctx.Eval(e);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *interp.EvalSparse(arena, e));
  EXPECT_EQ(*after, *interp.AtomicPartition("A"));
  EXPECT_NE(*after, *before);  // the stale value would have been `before`
  EXPECT_GE(ctx.stats().epoch_flushes, 1u);
  // The post-mutation evaluation recomputed everything.
  EXPECT_GE(ctx.stats().memo_misses, 6u);
}

TEST(EvalMemoTest, InterpretationEvalPathFlushesOnMutation) {
  // Same property through the one-shot PartitionInterpretation::Satisfies,
  // which evaluates through a local EvalContext per call.
  PartitionInterpretation interp;
  Define(&interp, "A", 4, {0, 0, 1, 1});
  Define(&interp, "B", 4, {0, 1, 0, 1});
  ExprArena arena;
  Result<Pd> pd = arena.ParsePd("A = B");
  ASSERT_TRUE(pd.ok());
  Result<bool> sat = interp.Satisfies(arena, *pd);
  ASSERT_TRUE(sat.ok());
  EXPECT_FALSE(*sat);

  Define(&interp, "B", 4, {0, 0, 1, 1});  // now B == A
  sat = interp.Satisfies(arena, *pd);
  ASSERT_TRUE(sat.ok());
  EXPECT_TRUE(*sat);
}

TEST(EvalMemoTest, CopiedInterpretationStartsColdButAgrees) {
  // An interpretation is a plain value: a copy evaluates alike and is
  // independent of its source.
  PartitionInterpretation interp;
  DefineAbc(&interp);
  ExprArena arena;
  ExprId e = *arena.Parse("A * B + C");
  Result<Partition> orig = interp.Eval(arena, e);
  ASSERT_TRUE(orig.ok());

  PartitionInterpretation copy = interp;
  Result<Partition> copied = copy.Eval(arena, e);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(*orig, *copied);

  // Mutating the copy must not leak into the original.
  Define(&copy, "C", 6, {0, 1, 2, 3, 4, 5});
  EXPECT_NE(*copy.Eval(arena, e), *orig);
  EXPECT_EQ(*interp.Eval(arena, e), *orig);
}

TEST(EvalMemoTest, RecycledArenaAddressNeverServesStalePartition) {
  // A second arena built at the address of a destroyed one reuses its
  // ExprIds for different expressions: A * B there is id 2, A + B here.
  PartitionInterpretation interp;
  Define(&interp, "A", 4, {0, 0, 1, 1});
  Define(&interp, "B", 4, {0, 1, 0, 1});
  std::optional<ExprArena> arena;
  arena.emplace();
  Result<bool> first = interp.Satisfies(*arena, *arena->ParsePd("A * B = A"));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first);
  arena.reset();
  arena.emplace();

  ExprId sum = arena->Sum(arena->Attr("A"), arena->Attr("B"));
  Result<Partition> got = interp.Eval(*arena, sum);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *interp.EvalSparse(*arena, sum));
  EXPECT_EQ(got->num_blocks(), 1u);
  Result<bool> sat =
      interp.Satisfies(*arena, *arena->ParsePd("A + B = A * B"));
  ASSERT_TRUE(sat.ok());
  EXPECT_FALSE(*sat);
}

TEST(EvalMemoTest, LruEvictionKeepsResultsCorrect) {
  PartitionInterpretation interp;
  DefineAbc(&interp);
  ExprArena arena;
  // A left-nested chain with more distinct nodes than the memo holds.
  // EvalSparse would recurse once per link, so the reference for the
  // root folds the same sparse operations link by link.
  const Partition b = *interp.AtomicPartition("B");
  const Partition c = *interp.AtomicPartition("C");
  std::vector<ExprId> chain{arena.Attr("A")};
  Partition want = *interp.AtomicPartition("A");
  while (chain.size() <= EvalContext::kMemoCapacity) {
    ExprId prev = chain.back();
    if (chain.size() % 2 == 1) {
      chain.push_back(arena.Product(prev, arena.Attr("B")));
      want = Partition::Product(want, b);
    } else {
      chain.push_back(arena.Sum(prev, arena.Attr("C")));
      want = Partition::Sum(want, c);
    }
  }
  EvalContext ctx(arena, interp);
  Result<Partition> got = ctx.Eval(chain.back());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, want);
  EXPECT_GT(ctx.stats().memo_evictions, 0u);
  EXPECT_LE(ctx.memo_size(), EvalContext::kMemoCapacity);
  // Still correct (and still bounded) on re-evaluation, also of the early
  // links, whose values were evicted.
  EXPECT_EQ(*ctx.Eval(chain.back()), want);
  for (std::size_t i = 1; i < 16; ++i) {
    EXPECT_EQ(*ctx.Eval(chain[i]), *interp.EvalSparse(arena, chain[i]));
  }
  EXPECT_LE(ctx.memo_size(), EvalContext::kMemoCapacity);
}

TEST(EvalMemoTest, CancelAbortsWithPartialStatsAndStaysUsable) {
  PartitionInterpretation interp;
  DefineAbc(&interp);
  ExprArena arena;
  ExprId e = *arena.Parse("(A * B + C) * (B + C) + A * C");

  EvalContext ctx(arena, interp);
  CancelToken token;
  token.Cancel();
  ExecContext cancelled;
  cancelled.WithCancelToken(token);
  Result<Partition> aborted = ctx.Eval(e, cancelled);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);

  // Partial stats survive the abort and the context remains usable.
  PartitionEvalStats after_abort = ctx.stats();
  Result<Partition> retried = ctx.Eval(e);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(*retried, *interp.EvalSparse(arena, e));
  EXPECT_GE(ctx.stats().memo_misses, after_abort.memo_misses);
}

TEST(EvalMemoTest, SolverNodeBudgetAbortsAndRetrySucceeds) {
  PartitionInterpretation interp;
  DefineAbc(&interp);
  ExprArena arena;
  ExprId e = *arena.Parse("(A * B + C) * (B + C) + A * C");

  EvalContext ctx(arena, interp);
  ExecContext budgeted;
  budgeted.WithMaxSolverNodes(2);  // the DAG needs more nodes than this
  Result<Partition> aborted = ctx.Eval(e, budgeted);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);

  Result<Partition> ok = ctx.Eval(e);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, *interp.EvalSparse(arena, e));

  // An expired deadline behaves the same way.
  ExecContext timed;
  timed.WithTimeout(std::chrono::nanoseconds(0));
  EvalContext ctx2(arena, interp);
  Result<Partition> timed_out = ctx2.Eval(e, timed);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ctx2.Eval(e).ok());
}

TEST(EvalMemoTest, SharedMemoAgreesWithSparseReferenceOnRandomDags) {
  Rng rng(0xeba1);
  for (int it = 0; it < 30; ++it) {
    PartitionInterpretation interp;
    std::size_t n = 1 + rng.Below(24);
    const char* names[] = {"A", "B", "C", "D"};
    for (const char* name : names) {
      std::vector<uint32_t> labels(n);
      for (auto& l : labels) {
        l = static_cast<uint32_t>(rng.Below(1 + rng.Below(6)));
      }
      Define(&interp, name, n, labels);
    }
    // Random DAG: new nodes combine random earlier nodes, so sharing is
    // heavy and later roots are served partly from the memo.
    ExprArena arena;
    std::vector<ExprId> nodes;
    for (const char* name : names) nodes.push_back(arena.Attr(name));
    for (int k = 0; k < 24; ++k) {
      ExprId l = nodes[rng.Below(nodes.size())];
      ExprId r = nodes[rng.Below(nodes.size())];
      nodes.push_back(rng.Chance(1, 2) ? arena.Product(l, r)
                                       : arena.Sum(l, r));
    }
    std::vector<ExprId> roots(nodes.end() - 8, nodes.end());

    EvalContext ctx(arena, interp);
    for (ExprId root : roots) {
      Result<Partition> got = ctx.Eval(root);
      Result<Partition> ref = interp.EvalSparse(arena, root);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ(*got, *ref);
    }

    // Satisfies on the same warm context agrees with the public path.
    for (std::size_t i = 0; i + 1 < roots.size(); i += 2) {
      Pd pd = rng.Chance(1, 2) ? Pd::Eq(roots[i], roots[i + 1])
                               : Pd::Leq(roots[i], roots[i + 1]);
      Result<bool> got = ctx.Satisfies(pd);
      Result<bool> one = interp.Satisfies(arena, pd);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(one.ok());
      EXPECT_EQ(*got, *one);
    }
  }
}

TEST(EvalMemoTest, PartialAbortLeavesSharedMemoReusable) {
  PartitionInterpretation interp;
  DefineAbc(&interp);
  ExprArena arena;
  std::vector<ExprId> roots;
  ExprId e = arena.Attr("A");
  for (int i = 0; i < 10; ++i) {
    e = arena.Sum(arena.Product(e, arena.Attr("B")), arena.Attr("C"));
    roots.push_back(e);
  }
  // The deepest root needs 21 fresh nodes; a budget of 8 trips after the
  // first 8 are computed, and those stay memoized for the other roots.
  EvalContext ctx(arena, interp);
  ExecContext budgeted;
  budgeted.WithMaxSolverNodes(8);
  Result<Partition> aborted = ctx.Eval(roots.back(), budgeted);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.memo_size(), 8u);

  const uint64_t hits_before = ctx.stats().memo_hits;
  for (ExprId root : roots) {
    Result<Partition> ok = ctx.Eval(root);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(*ok, *interp.EvalSparse(arena, root));
  }
  EXPECT_GT(ctx.stats().memo_hits, hits_before);
}

TEST(EvalMemoTest, UndefinedAttributeIsNotFoundAndRecoverable) {
  PartitionInterpretation interp;
  Define(&interp, "A", 3, {0, 1, 1});
  ExprArena arena;
  ExprId e = arena.Product(arena.Attr("A"), arena.Attr("Z"));
  EvalContext ctx(arena, interp);
  Result<Partition> missing = ctx.Eval(e);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // Defining Z (epoch bump) recovers without a stale verdict.
  Define(&interp, "Z", 3, {0, 0, 1});
  Result<Partition> found = ctx.Eval(e);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *interp.EvalSparse(arena, e));
}

TEST(EvalMemoTest, RandomizedDifferentialEvalVsSparse) {
  // The evaluator leg of the >=500-case differential suite: random
  // interpretations (including attributes over different populations) and
  // random expressions, memoized vs paper-literal recursive reference.
  Rng rng(0xd1ff);
  int cases = 0;
  for (int it = 0; it < 60; ++it) {
    PartitionInterpretation interp;
    std::size_t world = 1 + rng.Below(20);
    const char* names[] = {"A", "B", "C"};
    for (const char* name : names) {
      // Random sub-population of the world (EAP not assumed).
      std::vector<Elem> pop;
      for (std::size_t x = 0; x < world; ++x) {
        if (rng.Chance(4, 5)) pop.push_back(static_cast<Elem>(x));
      }
      if (pop.empty()) pop.push_back(0);
      std::vector<uint32_t> labels(pop.size());
      for (auto& l : labels) l = static_cast<uint32_t>(rng.Below(4));
      Partition p = Partition::FromLabels(pop, labels);
      std::unordered_map<std::string, uint32_t> naming;
      for (uint32_t b = 0; b < p.num_blocks(); ++b) {
        naming[std::string(name) + "_" + std::to_string(b)] = b;
      }
      ASSERT_TRUE(interp.DefineAttribute(name, std::move(p), naming).ok());
    }
    ExprArena arena;
    std::vector<ExprId> nodes{arena.Attr("A"), arena.Attr("B"),
                              arena.Attr("C")};
    for (int k = 0; k < 10; ++k) {
      ExprId l = nodes[rng.Below(nodes.size())];
      ExprId r = nodes[rng.Below(nodes.size())];
      nodes.push_back(rng.Chance(1, 2) ? arena.Product(l, r)
                                       : arena.Sum(l, r));
    }
    for (ExprId e : nodes) {
      Result<Partition> memoized = interp.Eval(arena, e);
      Result<Partition> reference = interp.EvalSparse(arena, e);
      ASSERT_TRUE(memoized.ok());
      ASSERT_TRUE(reference.ok());
      EXPECT_EQ(*memoized, *reference);
      ++cases;
    }
  }
  EXPECT_GE(cases, 500);
}

}  // namespace
}  // namespace psem
