// Tests for the bounded model finder: countermodels exist exactly for
// non-implied PDs (on the small instances where Pi_<=4 suffices), found
// models really satisfy E and violate the query, and the satisfiability
// variant behaves.

#include <gtest/gtest.h>

#include "core/implication.h"
#include "core/model_finder.h"
#include "util/rng.h"

namespace psem {
namespace {

TEST(ModelFinderTest, FindsCounterexampleToConverseFpd) {
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A <= B")};
  Pd query = *arena.ParsePd("B <= A");
  auto model = FindCounterModel(arena, e, query);
  ASSERT_TRUE(model.has_value());
  EXPECT_GE(model->population_size, 2u);
  EXPECT_TRUE(*model->interpretation.Satisfies(arena, e[0]));
  EXPECT_FALSE(*model->interpretation.Satisfies(arena, query));
  EXPECT_TRUE(model->interpretation.SatisfiesEap());
}

TEST(ModelFinderTest, NoCounterexampleForImpliedPd) {
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A <= B"), *arena.ParsePd("B <= C")};
  EXPECT_FALSE(
      FindCounterModel(arena, e, *arena.ParsePd("A <= C")).has_value());
  EXPECT_FALSE(
      FindCounterModel(arena, {}, *arena.ParsePd("A*(A+B) = A")).has_value());
}

TEST(ModelFinderTest, DistributivityCounterexampleNeedsPopulationFour) {
  // A*(B+C) <= A*B + A*C fails first in partitions of a 4-set (Pi_3 = M3
  // also violates distributivity, but as a PARTITION lattice the witness
  // works there too — assert only that some countermodel <= 4 exists and
  // genuinely violates).
  ExprArena arena;
  Pd query = *arena.ParsePd("A*(B+C) <= A*B + A*C");
  auto model = FindCounterModel(arena, {}, query);
  ASSERT_TRUE(model.has_value());
  EXPECT_FALSE(*model->interpretation.Satisfies(arena, query));
  EXPECT_LE(model->population_size, 4u);
}

TEST(ModelFinderTest, ConnectivityPdCounterexample) {
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("C = A+B")};
  auto model = FindCounterModel(arena, e, *arena.ParsePd("C <= A"));
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE(*model->interpretation.Satisfies(arena, e[0]));
}

TEST(ModelFinderTest, SatisfiabilityWitness) {
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A <= B"), *arena.ParsePd("C = A+B")};
  auto model = FindModel(arena, e);
  ASSERT_TRUE(model.has_value());
  for (const Pd& pd : e) {
    EXPECT_TRUE(*model->interpretation.Satisfies(arena, pd));
  }
}

TEST(ModelFinderTest, EveryPdTheoryHasATrivialModel) {
  // Population 1 collapses everything: any E is satisfiable there — the
  // finder must succeed with k = 1 for arbitrary equations.
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A = B"), *arena.ParsePd("A = B+C"),
                       *arena.ParsePd("C = A*B")};
  auto model = FindModel(arena, e, /*max_population=*/1);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->population_size, 1u);
}

// Agreement sweep: finder verdict vs Algorithm ALG on random small
// inputs. A countermodel must never exist for implied queries; for
// non-implied ones we *expect* small witnesses most of the time but only
// assert soundness (no false countermodels) plus coverage bookkeeping.
class ModelFinderSweep : public ::testing::TestWithParam<int> {};

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

TEST_P(ModelFinderSweep, SoundAgainstAlg) {
  Rng rng(9500 + GetParam());
  int found = 0, not_implied = 0;
  for (int trial = 0; trial < 6; ++trial) {
    ExprArena arena;
    std::vector<Pd> e;
    for (int i = 0; i < 1 + trial % 2; ++i) {
      e.push_back(Pd::Leq(RandomExpr(&arena, &rng, 3, 1),
                          RandomExpr(&arena, &rng, 3, 1)));
    }
    PdImplicationEngine engine(&arena, e);
    for (int q = 0; q < 3; ++q) {
      Pd query = Pd::Leq(RandomExpr(&arena, &rng, 3, 1 + q % 2),
                         RandomExpr(&arena, &rng, 3, (q + 1) % 2 + 1));
      bool implied = engine.Implies(query);
      auto model = FindCounterModel(arena, e, query, /*max_population=*/3);
      if (implied) {
        ASSERT_FALSE(model.has_value()) << arena.ToString(query);
      } else {
        ++not_implied;
        if (model.has_value()) {
          ++found;
          for (const Pd& pd : e) {
            ASSERT_TRUE(*model->interpretation.Satisfies(arena, pd));
          }
          ASSERT_FALSE(*model->interpretation.Satisfies(arena, query));
        }
      }
    }
  }
  // Most non-implications should be witnessed within Pi_<=3.
  if (not_implied > 0) {
    EXPECT_GT(found, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelFinderSweep, ::testing::Range(0, 4));

}  // namespace
}  // namespace psem
