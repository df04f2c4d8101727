// Tests for proof extraction: derivations exist exactly when the engine
// says "implied", every extracted proof validates, premise order is
// respected, and rendering is sane. Random theories differential-test the
// provenance engine against the bitset engine.

#include <gtest/gtest.h>

#include "core/implication.h"
#include "core/proof.h"
#include "util/rng.h"

namespace psem {
namespace {

std::vector<Pd> ParseAll(ExprArena* arena,
                         const std::vector<std::string>& texts) {
  std::vector<Pd> pds;
  for (const auto& t : texts) pds.push_back(*arena->ParsePd(t));
  return pds;
}

TEST(ProofTest, TransitivityChainProof) {
  ExprArena arena;
  std::vector<Pd> e = ParseAll(&arena, {"A <= B", "B <= C", "C <= D"});
  ProvenanceEngine engine(&arena, e);
  auto proof = engine.ProveLeq(*arena.Parse("A"), *arena.Parse("D"));
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(ValidateProof(arena, e, *proof).ok());
  EXPECT_EQ(proof->goal().lhs, *arena.Parse("A"));
  EXPECT_EQ(proof->goal().rhs, *arena.Parse("D"));
  // Needs at least the three hypotheses and two transitivity steps.
  EXPECT_GE(proof->steps.size(), 5u);
}

TEST(ProofTest, NotImpliedYieldsNotFound) {
  ExprArena arena;
  std::vector<Pd> e = ParseAll(&arena, {"A <= B"});
  ProvenanceEngine engine(&arena, e);
  auto proof = engine.ProveLeq(*arena.Parse("B"), *arena.Parse("A"));
  EXPECT_FALSE(proof.ok());
  EXPECT_EQ(proof.status().code(), StatusCode::kNotFound);
}

TEST(ProofTest, EquationProofDerivesBothDirections) {
  ExprArena arena;
  std::vector<Pd> e = ParseAll(&arena, {"A <= B", "B <= A"});
  ProvenanceEngine engine(&arena, e);
  auto proof = engine.Prove(*arena.ParsePd("A = B"));
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(ValidateProof(arena, e, *proof).ok());
  // Both arcs appear among the steps.
  bool fwd = false, bwd = false;
  ExprId a = *arena.Parse("A"), b = *arena.Parse("B");
  for (const ProofStep& s : proof->steps) {
    fwd |= (s.lhs == a && s.rhs == b);
    bwd |= (s.lhs == b && s.rhs == a);
  }
  EXPECT_TRUE(fwd);
  EXPECT_TRUE(bwd);
}

TEST(ProofTest, IdentityProofUsesNoHypotheses) {
  ExprArena arena;
  ProvenanceEngine engine(&arena, {});
  auto proof = engine.ProveLeq(*arena.Parse("A*B"), *arena.Parse("A+C"));
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(ValidateProof(arena, {}, *proof).ok());
  for (const ProofStep& s : proof->steps) {
    EXPECT_NE(s.rule, ProofStep::Rule::kHypothesis);
  }
}

TEST(ProofTest, RenderingMentionsRulesAndSteps) {
  ExprArena arena;
  std::vector<Pd> e = ParseAll(&arena, {"A <= B", "B <= C"});
  ProvenanceEngine engine(&arena, e);
  auto proof = engine.ProveLeq(*arena.Parse("A"), *arena.Parse("C"));
  ASSERT_TRUE(proof.ok());
  std::string text = RenderProof(arena, *proof);
  EXPECT_NE(text.find("hypothesis"), std::string::npos);
  EXPECT_NE(text.find("transitivity"), std::string::npos);
  EXPECT_NE(text.find("A <= C"), std::string::npos);
}

TEST(ProofValidationTest, RejectsTamperedProofs) {
  ExprArena arena;
  std::vector<Pd> e = ParseAll(&arena, {"A <= B", "B <= C"});
  ProvenanceEngine engine(&arena, e);
  Proof proof = *engine.ProveLeq(*arena.Parse("A"), *arena.Parse("C"));
  ASSERT_TRUE(ValidateProof(arena, e, proof).ok());
  // Tamper 1: change the goal's conclusion.
  Proof bad1 = proof;
  bad1.steps.back().rhs = *arena.Parse("Z");
  EXPECT_FALSE(ValidateProof(arena, e, bad1).ok());
  // Tamper 2: forward premise reference.
  Proof bad2 = proof;
  for (ProofStep& s : bad2.steps) {
    if (s.rule == ProofStep::Rule::kTransitivity) {
      s.premise1 = static_cast<uint32_t>(bad2.steps.size());  // out of range
      break;
    }
  }
  EXPECT_FALSE(ValidateProof(arena, e, bad2).ok());
  // Tamper 3: hypothesis index out of range.
  Proof bad3 = proof;
  for (ProofStep& s : bad3.steps) {
    if (s.rule == ProofStep::Rule::kHypothesis) {
      s.hypothesis_index = 99;
      break;
    }
  }
  EXPECT_FALSE(ValidateProof(arena, e, bad3).ok());
  // Tamper 4: empty proof.
  EXPECT_FALSE(ValidateProof(arena, e, Proof{}).ok());
  // Tamper 5: reflexivity on a composite (rule 1 seeds attributes only).
  ProofStep refl;
  refl.lhs = refl.rhs = *arena.Parse("A*B");
  refl.rule = ProofStep::Rule::kReflexivity;
  EXPECT_FALSE(ValidateProof(arena, e, Proof{{refl}}).ok());
}

TEST(ProofTest, ReflexivityOnlyOnAttributes) {
  ExprArena arena;
  ProvenanceEngine engine(&arena, {});
  for (const char* text : {"A*B <= A*B", "A+B <= A+B"}) {
    Pd query = *arena.ParsePd(text);
    auto proof = engine.Prove(query);
    ASSERT_TRUE(proof.ok()) << text;
    ASSERT_TRUE(ValidateProof(arena, {}, *proof).ok()) << text;
    EXPECT_EQ(proof->goal().lhs, query.lhs);
    EXPECT_EQ(proof->goal().rhs, query.rhs);
    for (const ProofStep& s : proof->steps) {
      if (s.rule == ProofStep::Rule::kReflexivity) {
        EXPECT_TRUE(arena.IsAttr(s.lhs)) << text;
      }
    }
  }
}

TEST(ProofTest, MixedOperatorProof) {
  ExprArena arena;
  std::vector<Pd> e = ParseAll(&arena, {"C = A+B", "A <= D", "B <= D"});
  ProvenanceEngine engine(&arena, e);
  // C <= D: needs A+B <= D via sum-lub, then transitivity with C <= A+B.
  auto proof = engine.ProveLeq(*arena.Parse("C"), *arena.Parse("D"));
  ASSERT_TRUE(proof.ok());
  ASSERT_TRUE(ValidateProof(arena, e, *proof).ok());
  bool used_sum_lub = false;
  for (const ProofStep& s : proof->steps) {
    used_sum_lub |= (s.rule == ProofStep::Rule::kSumLub);
  }
  EXPECT_TRUE(used_sum_lub);
}

// Random differential: provenance engine verdicts == bitset engine; all
// produced proofs validate.
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

class ProofDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ProofDifferentialTest, ProvenanceMatchesEngineAndValidates) {
  Rng rng(9100 + GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    ExprArena arena;
    std::vector<Pd> e;
    for (int i = 0; i < 2; ++i) {
      ExprId l = RandomExpr(&arena, &rng, 3, 1 + static_cast<int>(rng.Below(2)));
      ExprId r = RandomExpr(&arena, &rng, 3, 1 + static_cast<int>(rng.Below(2)));
      e.push_back(rng.Chance(1, 2) ? Pd::Eq(l, r) : Pd::Leq(l, r));
    }
    PdImplicationEngine fast(&arena, e);
    ProvenanceEngine prover(&arena, e);
    for (int q = 0; q < 6; ++q) {
      ExprId l = RandomExpr(&arena, &rng, 3, 1 + q % 2);
      ExprId r = RandomExpr(&arena, &rng, 3, 1 + (q + 1) % 2);
      bool implied = fast.ImpliesLeq(l, r);
      auto proof = prover.ProveLeq(l, r);
      ASSERT_EQ(implied, proof.ok())
          << arena.ToString(l) << " <= " << arena.ToString(r);
      if (proof.ok()) {
        Status valid = ValidateProof(arena, e, *proof);
        ASSERT_TRUE(valid.ok()) << valid.ToString();
        EXPECT_EQ(proof->goal().lhs, l);
        EXPECT_EQ(proof->goal().rhs, r);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProofDifferentialTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace psem
