// Tests for the RR rewrite system (Lemma 9.1): rewrite sequences exist
// for implied inequalities on small instances, never for non-implied
// ones (soundness cross-check against Algorithm ALG), and every step of
// every found sequence is a legal single-step rewrite.

#include <gtest/gtest.h>

#include "core/implication.h"
#include "lattice/rewrite.h"

namespace psem {
namespace {

// Checks that each consecutive pair in the sequence is one legal step.
void ValidateSequence(ExprArena* arena, const std::vector<Pd>& e,
                      const RewriteSequence& seq, ExprId from, ExprId to) {
  ASSERT_FALSE(seq.steps.empty());
  EXPECT_EQ(seq.steps.front().expr, from);
  EXPECT_EQ(seq.steps.back().expr, to);
  std::vector<ExprId> roots;
  for (const Pd& pd : e) {
    roots.push_back(pd.lhs);
    roots.push_back(pd.rhs);
  }
  roots.push_back(from);
  roots.push_back(to);
  const std::vector<ExprId> pool = arena->PostOrder(roots);
  for (std::size_t i = 1; i < seq.steps.size(); ++i) {
    auto options = OneStepRewrites(arena, seq.steps[i - 1].expr, e, pool,
                                   /*max_size=*/64);
    bool legal = false;
    for (const RewriteStep& o : options) {
      legal |= (o.expr == seq.steps[i].expr);
    }
    ASSERT_TRUE(legal) << "illegal step " << i << " in "
                       << RenderRewriteSequence(*arena, seq);
  }
}

TEST(RewriteTest, ProjectionIsOneStep) {
  ExprArena arena;
  ExprId from = *arena.Parse("A*B");
  ExprId to = *arena.Parse("A");
  auto seq = FindRewriteSequence(&arena, from, to, {});
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->steps.size(), 2u);
  ValidateSequence(&arena, {}, *seq, from, to);
}

TEST(RewriteTest, PaddingIntoSums) {
  ExprArena arena;
  ExprId from = *arena.Parse("A");
  ExprId to = *arena.Parse("A+B");
  auto seq = FindRewriteSequence(&arena, from, to, {});
  ASSERT_TRUE(seq.ok());
  ValidateSequence(&arena, {}, *seq, from, to);
}

TEST(RewriteTest, GlbNeedsProductExpansion) {
  // A <= B, A <= C |= A <= B*C: the sequence goes through A*A.
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A <= B"), *arena.ParsePd("A <= C")};
  ExprId from = *arena.Parse("A");
  ExprId to = *arena.Parse("B*C");
  auto seq = FindRewriteSequence(&arena, from, to, e);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ValidateSequence(&arena, e, *seq, from, to);
  bool expanded = false;
  for (const RewriteStep& s : seq->steps) {
    expanded |= (s.rule == "expand-product");
  }
  EXPECT_TRUE(expanded);
}

TEST(RewriteTest, SumLubNeedsCollapse) {
  // A <= C, B <= C |= A+B <= C via A+B -> C+B -> C+C -> C.
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A <= C"), *arena.ParsePd("B <= C")};
  ExprId from = *arena.Parse("A+B");
  ExprId to = *arena.Parse("C");
  auto seq = FindRewriteSequence(&arena, from, to, e);
  ASSERT_TRUE(seq.ok());
  ValidateSequence(&arena, e, *seq, from, to);
  bool collapsed = false;
  for (const RewriteStep& s : seq->steps) {
    collapsed |= (s.rule == "collapse-sum");
  }
  EXPECT_TRUE(collapsed);
}

TEST(RewriteTest, EquationUsedBothWays) {
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A = B")};
  auto fwd = FindRewriteSequence(&arena, *arena.Parse("A"), *arena.Parse("B"), e);
  ASSERT_TRUE(fwd.ok());
  auto bwd = FindRewriteSequence(&arena, *arena.Parse("B"), *arena.Parse("A"), e);
  ASSERT_TRUE(bwd.ok());
}

TEST(RewriteTest, LeqConstraintIsOneWay) {
  ExprArena arena;
  std::vector<Pd> e = {*arena.ParsePd("A <= B")};
  EXPECT_TRUE(
      FindRewriteSequence(&arena, *arena.Parse("A"), *arena.Parse("B"), e)
          .ok());
  auto bwd =
      FindRewriteSequence(&arena, *arena.Parse("B"), *arena.Parse("A"), e,
                          /*max_size=*/10, /*max_states=*/20000);
  EXPECT_FALSE(bwd.ok());
}

TEST(RewriteTest, AgreesWithAlgOnSmallCorpus) {
  // Lemma 9.1 both ways on a curated corpus where the BFS bounds are
  // known to suffice.
  struct Case {
    std::vector<std::string> e;
    std::string from, to;
    bool implied;
  };
  std::vector<Case> cases = {
      {{"A <= B", "B <= C"}, "A", "C", true},
      {{"A <= B"}, "A*C", "B*C", true},
      {{"C = A+B"}, "A", "C", true},
      {{"C = A+B"}, "C", "A+B", true},
      {{}, "A*(B+C)", "A", true},
      {{}, "A", "A*(B+C)", false},
      {{"A <= B"}, "B", "A", false},
      {{}, "A*B+A*C", "A*(B+C)", true},
  };
  for (const Case& tc : cases) {
    ExprArena arena;
    std::vector<Pd> e;
    for (const auto& s : tc.e) e.push_back(*arena.ParsePd(s));
    ExprId from = *arena.Parse(tc.from);
    ExprId to = *arena.Parse(tc.to);
    PdImplicationEngine engine(&arena, e);
    ASSERT_EQ(engine.ImpliesLeq(from, to), tc.implied)
        << tc.from << " <= " << tc.to;
    auto seq = FindRewriteSequence(&arena, from, to, e, /*max_size=*/16,
                                   /*max_states=*/150000);
    EXPECT_EQ(seq.ok(), tc.implied) << tc.from << " <= " << tc.to << ": "
                                    << seq.status().ToString();
    if (seq.ok()) ValidateSequence(&arena, e, *seq, from, to);
  }
}

TEST(RewriteTest, RenderShowsRules) {
  ExprArena arena;
  auto seq = FindRewriteSequence(&arena, *arena.Parse("A*B"),
                                 *arena.Parse("A"), {});
  ASSERT_TRUE(seq.ok());
  std::string text = RenderRewriteSequence(arena, *seq);
  EXPECT_NE(text.find("project"), std::string::npos);
  EXPECT_NE(text.find("A*B"), std::string::npos);
}

}  // namespace
}  // namespace psem
