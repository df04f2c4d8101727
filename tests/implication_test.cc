// Tests for PD implication (Algorithm ALG, Section 5.2, Theorems 8-9).
// The engine is validated four independent ways:
//   1. hand-checked inferences from the paper's examples;
//   2. differential testing against the literal rule-by-rule engine
//      (ProvenanceEngine, core/proof.h);
//   3. soundness against explicit finite-lattice models (if ALG says
//      E |= delta, then every sampled lattice satisfying E satisfies delta);
//   4. agreement with the FD closure algorithm on FPD encodings (the
//      Section 5.3 reduction in both directions) and with the Whitman
//      deciders when E is empty (Lemma 8.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fd_theory.h"
#include "core/fpd.h"
#include "core/implication.h"
#include "core/proof.h"
#include "lattice/expr.h"
#include "lattice/finite_lattice.h"
#include "lattice/whitman.h"
#include "partition/partition_lattice.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace psem {
namespace {

// Convenience: build a theory from PD strings and query one.
bool Implies(const std::vector<std::string>& e, const std::string& query) {
  ExprArena arena;
  std::vector<Pd> pds;
  for (const auto& s : e) pds.push_back(*arena.ParsePd(s));
  PdImplicationEngine engine(&arena, pds);
  return engine.Implies(*arena.ParsePd(query));
}

TEST(PdImplicationTest, FpdTransitivity) {
  // A <= B, B <= C |= A <= C — the FD chain A->B, B->C |= A->C.
  EXPECT_TRUE(Implies({"A = A*B", "B = B*C"}, "A = A*C"));
  EXPECT_TRUE(Implies({"A <= B", "B <= C"}, "A <= C"));
  EXPECT_FALSE(Implies({"A <= B", "B <= C"}, "C <= A"));
}

TEST(PdImplicationTest, ThreeSpellingsOfAnFpdAreInterchangeable) {
  // X = X*Y, Y = Y+X and X <= Y are equivalent (Section 3.2).
  for (const char* premise : {"A = A*B", "B = B+A", "A <= B"}) {
    for (const char* conclusion : {"A = A*B", "B = B+A", "A <= B"}) {
      EXPECT_TRUE(Implies({premise}, conclusion))
          << premise << " |= " << conclusion;
    }
  }
}

TEST(PdImplicationTest, ExampleF) {
  // X = Y*Z is equivalent to { X <= Y*Z, Y*Z <= X }.
  EXPECT_TRUE(Implies({"X = Y*Z"}, "X <= Y*Z"));
  EXPECT_TRUE(Implies({"X = Y*Z"}, "Y*Z <= X"));
  EXPECT_TRUE(Implies({"X <= Y*Z", "Y*Z <= X"}, "X = Y*Z"));
  // And X = Y*Z gives the FDs X -> Y, X -> Z, YZ -> X.
  EXPECT_TRUE(Implies({"X = Y*Z"}, "X <= Y"));
  EXPECT_TRUE(Implies({"X = Y*Z"}, "X <= Z"));
  EXPECT_FALSE(Implies({"X = Y*Z"}, "Y <= X"));
}

TEST(PdImplicationTest, SumDecomposition) {
  // Section 4.2: A+B <= C is equivalent to A <= C and B <= C.
  EXPECT_TRUE(Implies({"A+B <= C"}, "A <= C"));
  EXPECT_TRUE(Implies({"A+B <= C"}, "B <= C"));
  EXPECT_TRUE(Implies({"A <= C", "B <= C"}, "A+B <= C"));
}

TEST(PdImplicationTest, ConnectivityPdConsequences) {
  // C = A+B: both A and B determine C (cf. Example e).
  EXPECT_TRUE(Implies({"C = A+B"}, "A <= C"));
  EXPECT_TRUE(Implies({"C = A+B"}, "B <= C"));
  EXPECT_TRUE(Implies({"C = A+B"}, "C <= A+B"));
  EXPECT_FALSE(Implies({"C = A+B"}, "C <= A"));
  EXPECT_FALSE(Implies({"C <= A+B"}, "C = A+B"));
}

TEST(PdImplicationTest, IdentitiesImpliedByEmptyTheory) {
  EXPECT_TRUE(Implies({}, "A*B = B*A"));
  EXPECT_TRUE(Implies({}, "A+(B+C) = (A+B)+C"));
  EXPECT_TRUE(Implies({}, "A*(A+B) = A"));
  EXPECT_TRUE(Implies({}, "A*B + A*C <= A*(B+C)"));
  EXPECT_FALSE(Implies({}, "A*(B+C) <= A*B + A*C"));
  EXPECT_FALSE(Implies({}, "A = B"));
}

TEST(PdImplicationTest, CongruenceUnderOperators) {
  // From A = B infer A*C = B*C and A+C = B+C.
  EXPECT_TRUE(Implies({"A = B"}, "A*C = B*C"));
  EXPECT_TRUE(Implies({"A = B"}, "A+C = B+C"));
  EXPECT_TRUE(Implies({"A = B", "C = D"}, "A*C = B*D"));
}

TEST(PdImplicationTest, SubstitutionThroughNestedExpressions) {
  EXPECT_TRUE(Implies({"A = B*C"}, "A+D = B*C+D"));
  EXPECT_TRUE(Implies({"A = B*C", "D = A+E"}, "D = B*C+E"));
}

TEST(PdImplicationTest, AugmentationLikeFds) {
  // FD augmentation: A -> B gives AC -> BC.
  EXPECT_TRUE(Implies({"A <= B"}, "A*C <= B*C"));
  // Union rule: A -> B and A -> C give A -> BC.
  EXPECT_TRUE(Implies({"A <= B", "A <= C"}, "A <= B*C"));
  // Decomposition: A -> BC gives A -> B.
  EXPECT_TRUE(Implies({"A <= B*C"}, "A <= B"));
}

TEST(PdImplicationTest, PseudoTransitivityMixedOperators) {
  EXPECT_TRUE(Implies({"A <= B+C", "B <= D", "C <= D"}, "A <= D"));
  EXPECT_FALSE(Implies({"A <= B+C", "B <= D"}, "A <= D"));
}

TEST(PdImplicationTest, EngineStatsArePopulated) {
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("A = A*B"), *arena.ParsePd("B = B*C")};
  PdImplicationEngine engine(&arena, pds);
  EXPECT_TRUE(engine.Implies(*arena.ParsePd("A <= C")));
  EXPECT_GT(engine.stats().num_vertices, 0u);
  EXPECT_GT(engine.stats().num_arcs, 0u);
  EXPECT_GT(engine.stats().passes, 0u);
}

TEST(PdImplicationTest, IncrementalQueriesExtendV) {
  ExprArena arena;
  PdImplicationEngine engine(&arena, {*arena.ParsePd("A <= B")});
  EXPECT_TRUE(engine.Implies(*arena.ParsePd("A <= B")));
  std::size_t n1 = engine.stats().num_vertices;
  // A query with fresh subexpressions grows V and stays correct.
  EXPECT_TRUE(engine.Implies(*arena.ParsePd("A*C <= B+D")));
  EXPECT_GT(engine.stats().num_vertices, n1);
  EXPECT_FALSE(engine.Implies(*arena.ParsePd("B <= A")));
}

// E is a set: the constructor adds through AddConstraint's dedupe, so a
// repeated constraint is kept once, at its first position. The same pair
// as an equation and as an inequality are two different constraints.
TEST(ImplicationTest, ConstructorDedupesConstraints) {
  ExprArena arena;
  const Pd p = *arena.ParsePd("A <= B*C");
  const Pd q = *arena.ParsePd("C = A+D");
  const Pd p_eq = Pd::Eq(p.lhs, p.rhs);
  PdImplicationEngine engine(&arena, {p, q, p, p_eq, q, p});
  EXPECT_EQ(engine.constraints(), (std::vector<Pd>{p, q, p_eq}));
  EXPECT_TRUE(engine.HasConstraint(p));
  EXPECT_TRUE(engine.HasConstraint(p_eq));
  EXPECT_FALSE(engine.HasConstraint(Pd::Leq(q.lhs, q.rhs)));

  PdImplicationEngine once(&arena, {p, q, p_eq});
  engine.Prepare({});
  once.Prepare({});
  EXPECT_EQ(engine.vertices(), once.vertices());
  EXPECT_EQ(engine.stats().num_arcs, once.stats().num_arcs);
  EXPECT_TRUE(engine.Implies(*arena.ParsePd("B*C <= A")));
}

// RestoreEngineState adds E through AddConstraint too: a snapshot that
// lists a constraint twice restores it once, already planted.
TEST(ImplicationTest, RestoreDedupesConstraints) {
  ExprArena arena;
  const Pd p = *arena.ParsePd("A <= B*C");
  const Pd q = *arena.ParsePd("C = A+D");
  PdImplicationEngine source(&arena, {p, q});
  source.Prepare({});
  auto rows = source.ClosedRows();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(source.ClosedRows()->data(), rows->data());  // a view, no copy

  PdImplicationEngine restored(&arena, {});
  ASSERT_TRUE(restored
                  .RestoreEngineState(
                      source.vertices(), {p, q, p, q},
                      {std::vector<DynamicBitset>(rows->begin(), rows->end()),
                       source.stats().num_arcs})
                  .ok());
  EXPECT_EQ(restored.constraints(), (std::vector<Pd>{p, q}));
  restored.AddConstraint(p);
  EXPECT_EQ(restored.constraints().size(), 2u);
  EXPECT_TRUE(restored.Implies(*arena.ParsePd("A <= B")));
  EXPECT_EQ(restored.stats().cold_closures, 0u);
}

// An engine copy owns every part of its state: once its source is gone,
// the copy answers the queries the source was asked, and new ones, as a
// cold engine does.
TEST(ImplicationTest, CopyOutlivesItsSource) {
  ExprArena arena;
  const std::vector<Pd> e = {*arena.ParsePd("A <= B*C"),
                             *arena.ParsePd("C = A+D")};
  const std::vector<Pd> asked = {*arena.ParsePd("A <= B"),
                                 *arena.ParsePd("B <= A"),
                                 *arena.ParsePd("A*D = A")};
  const std::vector<Pd> fresh = {*arena.ParsePd("A+E <= C+E"),
                                 *arena.ParsePd("D <= A"),
                                 *arena.ParsePd("B*E = A*E")};
  auto source = std::make_unique<PdImplicationEngine>(&arena, e);
  for (const Pd& q : asked) source->Implies(q);
  PdImplicationEngine copy = *source;
  source.reset();

  PdImplicationEngine cold(&arena, e);
  for (int round = 0; round < 2; ++round) {
    for (const Pd& q : asked) {
      EXPECT_EQ(copy.Implies(q), cold.Implies(q)) << arena.ToString(q);
    }
    for (const Pd& q : fresh) {
      EXPECT_EQ(copy.Implies(q), cold.Implies(q)) << arena.ToString(q);
    }
  }
}

// V's index is an array over the ExprIds the arena held when V last grew,
// so the ExprIds of a query interned later lie past its end: they are not
// in V yet. Implies and BatchImplies extend V to a cold engine's
// verdicts, and a copy of the engine answers as its source does.
TEST(ImplicationTest, QueriesInternedAfterVLastGrew) {
  ExprArena arena;
  const std::vector<Pd> e = {*arena.ParsePd("A <= B*C"),
                             *arena.ParsePd("C = A+D")};
  PdImplicationEngine single(&arena, e), batch(&arena, e);
  single.Prepare({});
  batch.Prepare({});
  PdImplicationEngine copy = single;
  const std::size_t known = arena.size();
  std::vector<Pd> late;
  for (const char* text : {"A+E <= C+E", "E*F <= A", "B*E = A*E",
                           "A*(D+F) <= C", "F = F*F", "C+E <= (A+D)+E"}) {
    late.push_back(*arena.ParsePd(text));
    ASSERT_GE(std::max(late.back().lhs, late.back().rhs), known) << text;
  }
  late.push_back(*arena.ParsePd("A <= B"));  // both sides already in V
  const std::vector<bool> batched = batch.BatchImplies(late);
  ASSERT_EQ(batched.size(), late.size());
  for (std::size_t i = 0; i < late.size(); ++i) {
    const bool cold = PdImplicationEngine(&arena, e).Implies(late[i]);
    EXPECT_EQ(single.Implies(late[i]), cold) << arena.ToString(late[i]);
    EXPECT_EQ(copy.Implies(late[i]), cold) << arena.ToString(late[i]);
    EXPECT_EQ(batched[i], cold) << arena.ToString(late[i]);
  }
}

// E's index is a FlatIdIndex over constraints(). Across many table
// growths it finds exactly the constraints added, and Leq(a, b),
// Eq(a, b) and Leq(b, a) are three different ones.
TEST(ImplicationTest, ConstraintIndexIsExactAcrossGrowth) {
  ExprArena arena;
  std::vector<ExprId> attrs;
  for (int i = 0; i < 100; ++i) {
    const std::string num = std::to_string(i);
    attrs.push_back(arena.Attr("A" + num));
  }
  // The three forms over the pair (i, j); form t is left out of E when
  // (7i + j + t) % 4 == 0.
  auto forms = [&](int i, int j) {
    const ExprId a = attrs[i], b = attrs[j];
    return std::array{Pd::Leq(a, b), Pd::Eq(a, b), Pd::Leq(b, a)};
  };
  auto in_e = [](int i, int j, int t) { return (7 * i + j + t) % 4 != 0; };
  PdImplicationEngine engine(&arena, {});
  std::vector<Pd> added;
  for (int i = 0; i < 100; ++i) {
    for (int j = i + 1; j < 100; ++j) {
      for (int t = 0; t < 3; ++t) {
        if (!in_e(i, j, t)) continue;
        engine.AddConstraint(forms(i, j)[t]);
        added.push_back(forms(i, j)[t]);
      }
    }
  }
  ASSERT_GT(added.size(), 10000u);
  EXPECT_EQ(engine.constraints(), added);
  for (int i = 0; i < 100; ++i) {
    for (int j = i + 1; j < 100; ++j) {
      for (int t = 0; t < 3; ++t) {
        ASSERT_EQ(engine.HasConstraint(forms(i, j)[t]), in_e(i, j, t))
            << i << " " << j << " " << t;
      }
      ASSERT_FALSE(engine.HasConstraint(Pd::Eq(attrs[j], attrs[i])));
    }
  }
  for (const Pd& pd : added) engine.AddConstraint(pd);
  EXPECT_EQ(engine.constraints(), added);
}

// --- random generators --------------------------------------------------------

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

// --- differential: engine vs naive rule application ---------------------------

class AlgDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgDifferentialTest, EngineMatchesNaive) {
  Rng rng(5000 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    ExprArena arena;
    std::vector<Pd> e = RandomTheory(&arena, &rng, 3, 2, 2);
    PdImplicationEngine engine(&arena, e);
    int true_count = 0;
    for (int q = 0; q < 6; ++q) {
      ExprId l = RandomExpr(&arena, &rng, 3, 1 + q % 3);
      ExprId r = RandomExpr(&arena, &rng, 3, 1 + (q + 1) % 3);
      Pd query = q % 2 == 0 ? Pd::Leq(l, r) : Pd::Eq(l, r);
      bool fast = engine.Implies(query);
      bool slow = ProvenanceEngine(&arena, e).Prove(query).ok();
      ASSERT_EQ(fast, slow)
          << "E: " << [&] {
               std::string s;
               for (const Pd& pd : e) s += arena.ToString(pd) + "; ";
               return s;
             }() << " query: " << arena.ToString(query);
      true_count += fast;
    }
    (void)true_count;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgDifferentialTest, ::testing::Range(0, 8));

// --- differential: delta closure vs naive, across engine configurations -------
//
// Coverage for the semi-naive delta closure: 500 random theories
// (20 seeds x 25 trials), each answered three ways against the literal
// rule-by-rule reference:
//   * the default engine and a forced-dense engine (every round through
//     the blocked tile kernel), queried incrementally so each later query
//     extends V and exercises the warm-start seeding;
//   * a budget-starved engine whose closure is aborted by WithMaxArcs
//     and resumed with escalating budgets until it completes — the final
//     verdicts after any number of aborted attempts must still match.
// All engine configurations must also agree among themselves on the
// final vertex and arc counts (the closure matrix is configuration-
// independent).

class DeltaClosureDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaClosureDifferentialTest, AllConfigurationsMatchNaive) {
  Rng rng(9100 + GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    ExprArena arena;
    std::vector<Pd> e = RandomTheory(&arena, &rng, 3, 2, 2);
    std::vector<Pd> queries;
    for (int q = 0; q < 4; ++q) {
      ExprId l = RandomExpr(&arena, &rng, 3, 1 + q % 3);
      ExprId r = RandomExpr(&arena, &rng, 3, 1 + (q + 1) % 3);
      queries.push_back(q % 2 == 0 ? Pd::Leq(l, r) : Pd::Eq(l, r));
    }
    auto describe = [&](const Pd& query) {
      std::string s = "E: ";
      for (const Pd& pd : e) s += arena.ToString(pd) + "; ";
      return s + " query: " + arena.ToString(query);
    };
    std::vector<bool> expected;
    for (const Pd& q : queries) {
      expected.push_back(ProvenanceEngine(&arena, e).Prove(q).ok());
    }

    std::size_t final_vertices = 0, final_arcs = 0;
    for (bool force_dense : {false, true}) {
      EngineOptions options;
      if (force_dense) {
        options.dense_min_rows = 1;
        options.dense_inv_density = SIZE_MAX;
      }
      PdImplicationEngine engine(&arena, e, options);
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        ASSERT_EQ(engine.Implies(queries[qi]), expected[qi])
            << describe(queries[qi]) << " forced dense: " << force_dense;
      }
      if (!force_dense) {
        final_vertices = engine.stats().num_vertices;
        final_arcs = engine.stats().num_arcs;
      } else {
        ASSERT_EQ(engine.stats().num_vertices, final_vertices);
        ASSERT_EQ(engine.stats().num_arcs, final_arcs)
            << "forced-dense closure diverged";
      }
    }

    // Abort-and-resume under escalating arc budgets.
    PdImplicationEngine starved(&arena, e);
    bool saw_abort = false;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      uint64_t budget = 1;
      while (true) {
        ExecContext ctx;
        ctx.WithMaxArcs(budget);
        Result<bool> r = starved.Implies(queries[qi], ctx);
        if (r.ok()) {
          ASSERT_EQ(*r, expected[qi])
              << describe(queries[qi]) << " after budget aborts";
          break;
        }
        saw_abort = true;
        ASSERT_LT(budget, uint64_t{1} << 40);
        budget *= 8;
      }
    }
    ASSERT_TRUE(saw_abort);  // budget 1 must starve any nonempty closure
    ASSERT_GE(starved.stats().aborted_closures, 1u);
    ASSERT_EQ(starved.stats().num_vertices, final_vertices);
    ASSERT_EQ(starved.stats().num_arcs, final_arcs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaClosureDifferentialTest,
                         ::testing::Range(0, 20));

// --- scaled incremental differential -------------------------------------------
//
// Theories large enough for multi-round transitivity through the warm
// start: 3-12 attributes, 2-15 PDs of up to 4 operators, and a chain
// spine A <= B <= ... in every third theory. Half of E goes to the
// constructor; the rest arrives one AddConstraint + Prepare({}) at a time,
// with three queries (which grow V) between additions. Three engines —
// default, forced dense, and arc-budget abort/resume — take every step in
// lockstep. After each step all three must hold the same V and a cold
// engine's arc count over that E and V, and answer every query as that
// cold engine and, wherever |V| keeps it cheap, as ProvenanceEngine does.

class ScaledIncrementalDifferentialTest
    : public ::testing::TestWithParam<int> {};

TEST_P(ScaledIncrementalDifferentialTest, EveryStepMatchesAColdEngine) {
  constexpr std::size_t kProvenanceMaxVertices = 24;
  constexpr int kTrials = 3;
  enum Config { kDefault, kForcedDense, kBudgetResume, kNumConfigs };
  Rng rng(12000 + GetParam());
  for (int trial = 0; trial < kTrials; ++trial) {
    const int theory = GetParam() * kTrials + trial;
    ExprArena arena;
    const int num_attrs = 3 + static_cast<int>(rng.Below(10));
    std::vector<Pd> e = RandomTheory(&arena, &rng, num_attrs,
                                     2 + static_cast<int>(rng.Below(14)), 4);
    if (theory % 3 == 0) {
      auto attr = [&](int k) {
        return arena.Attr(std::string(1, static_cast<char>('A' + k)));
      };
      for (int k = 0; k + 1 < num_attrs; ++k) {
        e.push_back(Pd::Leq(attr(k), attr(k + 1)));
      }
    }
    for (std::size_t k = e.size(); k > 1; --k) {
      std::swap(e[k - 1], e[rng.Below(k)]);
    }
    const std::size_t split = e.size() / 2;
    std::vector<Pd> current(e.begin(), e.begin() + split);

    EngineOptions dense;
    dense.dense_min_rows = 1;
    dense.dense_inv_density = SIZE_MAX;
    std::vector<PdImplicationEngine> engines;
    engines.emplace_back(&arena, current);
    engines.emplace_back(&arena, current, dense);
    engines.emplace_back(&arena, current);
    // Runs one governed call on engine c to completion; the budget-resume
    // engine is first aborted by escalating arc budgets and resumed.
    auto governed = [&](int c, auto call) {
      uint64_t budget = c == kBudgetResume ? 1 : 0;
      while (true) {
        ExecContext ctx;
        if (budget != 0) ctx.WithMaxArcs(budget);
        Result<bool> r = call(engines[c], ctx);
        if (r.ok() || budget == 0) return r;
        budget *= 4;
      }
    };
    auto prepare = [](PdImplicationEngine& engine,
                      const ExecContext& ctx) -> Result<bool> {
      PSEM_RETURN_IF_ERROR(engine.Prepare({}, ctx));
      return true;
    };
    auto where = [&](const std::string& step, int c) {
      std::string s = step;
      s += " config ";
      s += std::to_string(c);
      s += " E:";
      for (const Pd& pd : current) {
        s += ' ';
        s += arena.ToString(pd);
        s += ';';
      }
      return s;
    };
    // One step: `call` on every engine (its verdicts into *verdicts), then
    // the comparison with a cold engine, which is returned.
    auto step = [&](const std::string& name, auto call,
                    std::vector<bool>* verdicts) {
      verdicts->clear();
      for (int c = 0; c < kNumConfigs; ++c) {
        Result<bool> r = governed(c, call);
        EXPECT_TRUE(r.ok()) << where(name, c) << ": " << r.status().ToString();
        verdicts->push_back(r.ok() && *r);
      }
      PdImplicationEngine cold(&arena, current);
      cold.Prepare(engines[kDefault].vertices());
      for (int c = 0; c < kNumConfigs; ++c) {
        EXPECT_EQ(engines[c].vertices(), engines[kDefault].vertices())
            << where(name, c);
        EXPECT_EQ(engines[c].stats().num_arcs, cold.stats().num_arcs)
            << where(name, c);
      }
      return cold;
    };

    std::vector<bool> verdicts;
    step("constructor", prepare, &verdicts);
    ASSERT_FALSE(HasFailure());
    for (std::size_t stage = 0;; ++stage) {
      ProvenanceEngine reference(&arena, current);
      for (int k = 0; k < 3; ++k) {
        ExprId l = RandomExpr(&arena, &rng, num_attrs,
                              static_cast<int>(rng.Below(4)));
        ExprId r = RandomExpr(&arena, &rng, num_attrs,
                              static_cast<int>(rng.Below(4)));
        const Pd q = rng.Chance(1, 2) ? Pd::Leq(l, r) : Pd::Eq(l, r);
        const std::string name = "query " + arena.ToString(q);
        PdImplicationEngine cold = step(
            name,
            [&](PdImplicationEngine& engine, const ExecContext& ctx) {
              return engine.Implies(q, ctx);
            },
            &verdicts);
        const bool want = cold.Implies(q);
        if (cold.vertices().size() <= kProvenanceMaxVertices) {
          EXPECT_EQ(want, reference.Prove(q).ok()) << where(name, kDefault);
        }
        for (int c = 0; c < kNumConfigs; ++c) {
          EXPECT_EQ(verdicts[c], want) << where(name, c);
        }
        ASSERT_FALSE(HasFailure());
      }
      if (split + stage == e.size()) break;
      current.push_back(e[split + stage]);
      for (PdImplicationEngine& engine : engines) {
        engine.AddConstraint(current.back());
      }
      step("addition", prepare, &verdicts);
      ASSERT_FALSE(HasFailure());
    }
    ASSERT_GE(engines[kBudgetResume].stats().aborted_closures, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaledIncrementalDifferentialTest,
                         ::testing::Range(0, 10));

// --- soundness against lattice models ------------------------------------------

class AlgSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgSoundnessTest, ImpliedPdsHoldInEverySatisfyingModel) {
  Rng rng(6000 + GetParam());
  std::vector<FiniteLattice> models;
  models.push_back(FiniteLattice::DiamondM3());
  models.push_back(FiniteLattice::PentagonN5());
  models.push_back(FiniteLattice::Boolean(2));
  models.push_back(FullPartitionLattice(4).lattice);  // Pi_4, 15 elements

  for (int trial = 0; trial < 6; ++trial) {
    ExprArena arena;
    std::vector<Pd> e = RandomTheory(&arena, &rng, 3, 2, 2);
    PdImplicationEngine engine(&arena, e);
    std::vector<Pd> queries;
    for (int q = 0; q < 4; ++q) {
      ExprId l = RandomExpr(&arena, &rng, 3, 1 + q % 3);
      ExprId r = RandomExpr(&arena, &rng, 3, 1 + (q + 1) % 3);
      queries.push_back(q % 2 == 0 ? Pd::Leq(l, r) : Pd::Eq(l, r));
    }
    std::size_t k = arena.num_attrs();
    ASSERT_LE(k, 3u);
    for (const FiniteLattice& l : models) {
      std::size_t total = 1;
      for (std::size_t i = 0; i < k; ++i) total *= l.size();
      for (std::size_t code = 0; code < total; ++code) {
        std::vector<LatticeElem> asg(k);
        std::size_t c = code;
        for (std::size_t i = 0; i < k; ++i) {
          asg[i] = static_cast<LatticeElem>(c % l.size());
          c /= l.size();
        }
        bool model_ok = true;
        for (const Pd& pd : e) {
          if (!*l.Satisfies(arena, pd, asg)) {
            model_ok = false;
            break;
          }
        }
        if (!model_ok) continue;
        // The lattice-with-constants (l, asg) satisfies E: every PD the
        // engine derives must hold in it (Theorem 8 b).
        for (const Pd& q : queries) {
          if (engine.Implies(q)) {
            ASSERT_TRUE(*l.Satisfies(arena, q, asg))
                << arena.ToString(q);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgSoundnessTest, ::testing::Range(0, 6));

// For queries the engine REJECTS, a counterexample lattice should usually
// be found among small partition-lattice models — check a handful of
// specific rejections.
TEST(AlgCompletenessSpotTest, RejectedQueriesHaveCounterexamples) {
  struct Case {
    std::vector<std::string> e;
    std::string query;
  };
  std::vector<Case> cases = {
      {{"A <= B"}, "B <= A"},
      {{"C = A+B"}, "C <= A"},
      {{}, "A*(B+C) <= A*B + A*C"},
      {{"A <= B+C"}, "A <= B"},
  };
  auto full = FullPartitionLattice(4);
  const FiniteLattice& l = full.lattice;
  for (const Case& tc : cases) {
    ExprArena arena;
    std::vector<Pd> e;
    for (const auto& s : tc.e) e.push_back(*arena.ParsePd(s));
    Pd query = *arena.ParsePd(tc.query);
    PdImplicationEngine engine(&arena, e);
    ASSERT_FALSE(engine.Implies(query)) << tc.query;
    // Search Pi_4 assignments for a countermodel.
    std::size_t k = arena.num_attrs();
    std::size_t total = 1;
    for (std::size_t i = 0; i < k; ++i) total *= l.size();
    bool found = false;
    for (std::size_t code = 0; code < total && !found; ++code) {
      std::vector<LatticeElem> asg(k);
      std::size_t c = code;
      for (std::size_t i = 0; i < k; ++i) {
        asg[i] = static_cast<LatticeElem>(c % l.size());
        c /= l.size();
      }
      bool sat_e = true;
      for (const Pd& pd : e) sat_e &= *l.Satisfies(arena, pd, asg);
      if (sat_e && !*l.Satisfies(arena, query, asg)) found = true;
    }
    EXPECT_TRUE(found) << "no countermodel in Pi_4 for " << tc.query;
  }
}

// --- Section 5.3: FD implication == ALG on FPD encodings -----------------------

class FdVsPdTest : public ::testing::TestWithParam<int> {};

TEST_P(FdVsPdTest, ClosureAgreesWithAlg) {
  Rng rng(7000 + GetParam());
  const int num_attrs = 5;
  for (int trial = 0; trial < 8; ++trial) {
    Universe u;
    for (int i = 0; i < num_attrs; ++i) {
      u.Intern(std::string(1, static_cast<char>('A' + i)));
    }
    FdTheory fds(&u);
    int num_fds = 1 + static_cast<int>(rng.Below(4));
    for (int i = 0; i < num_fds; ++i) {
      AttrSet lhs(num_attrs), rhs(num_attrs);
      do {
        for (int a = 0; a < num_attrs; ++a) {
          if (rng.Chance(1, 3)) lhs.Set(a);
        }
      } while (!lhs.Any());
      do {
        for (int a = 0; a < num_attrs; ++a) {
          if (rng.Chance(1, 3)) rhs.Set(a);
        }
      } while (!rhs.Any());
      fds.Add(Fd{lhs, rhs});
    }
    ExprArena arena;
    std::vector<Pd> fpds = FdsToFpds(u, &arena, fds.fds());
    PdImplicationEngine engine(&arena, fpds);
    // Query random FDs both ways.
    for (int q = 0; q < 12; ++q) {
      AttrSet lhs(num_attrs), rhs(num_attrs);
      do {
        for (int a = 0; a < num_attrs; ++a) {
          if (rng.Chance(1, 3)) lhs.Set(a);
        }
      } while (!lhs.Any());
      do {
        for (int a = 0; a < num_attrs; ++a) {
          if (rng.Chance(1, 3)) rhs.Set(a);
        }
      } while (!rhs.Any());
      Fd fd{lhs, rhs};
      Pd fpd = FdToFpd(u, &arena, fd);
      EXPECT_EQ(fds.Implies(fd), engine.Implies(fpd))
          << fd.ToString(u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdVsPdTest, ::testing::Range(0, 8));

// --- empty theory == Whitman ----------------------------------------------------

class EmptyTheoryTest : public ::testing::TestWithParam<int> {};

TEST_P(EmptyTheoryTest, AlgWithEmptyEMatchesWhitman) {
  Rng rng(8000 + GetParam());
  ExprArena arena;
  WhitmanMemo whitman(&arena);
  PdImplicationEngine engine(&arena, {});
  for (int trial = 0; trial < 40; ++trial) {
    ExprId l = RandomExpr(&arena, &rng, 3, 1 + trial % 5);
    ExprId r = RandomExpr(&arena, &rng, 3, 1 + (trial + 1) % 5);
    EXPECT_EQ(engine.ImpliesLeq(l, r), whitman.Leq(l, r))
        << arena.ToString(l) << " <= " << arena.ToString(r);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmptyTheoryTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace psem
