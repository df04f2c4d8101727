// Tests for Section 6.1: NAE-SAT solving, the Theorem 11 reduction to
// CAD-consistency, the exact CAD solver, and the Figure 3 instance.

#include <gtest/gtest.h>

#include "consistency/cad.h"
#include "consistency/nae3sat.h"
#include "relational/dependency.h"
#include "util/rng.h"

namespace psem {
namespace {

// --- NAE-SAT ------------------------------------------------------------------

TEST(NaeFormulaTest, ParseAndPrint) {
  NaeFormula f = NaeFormula::Parse("1 2 -3; -1 4 2");
  EXPECT_EQ(f.num_vars, 4u);
  ASSERT_EQ(f.clauses.size(), 2u);
  EXPECT_EQ(f.ToString(), "1 2 -3; -1 4 2");
  EXPECT_FALSE(f.clauses[0][2].positive);
  EXPECT_EQ(f.clauses[0][2].var, 2u);
}

TEST(NaeFormulaTest, SatisfiedSemantics) {
  NaeFormula f = NaeFormula::Parse("1 2 3");
  // All true -> not NAE; all false -> not NAE; mixed -> NAE.
  EXPECT_FALSE(f.Satisfied({true, true, true}));
  EXPECT_FALSE(f.Satisfied({false, false, false}));
  EXPECT_TRUE(f.Satisfied({true, false, true}));
}

TEST(NaeSolveTest, TriviallySatisfiable) {
  NaeFormula f = NaeFormula::Parse("1 2 3");
  auto r = NaeSolve(f);
  ASSERT_TRUE(r.assignment.has_value());
  EXPECT_TRUE(f.Satisfied(*r.assignment));
}

TEST(NaeSolveTest, UnsatisfiableCore) {
  // x1 x2; -x1 -x2 with 2-literal NAE clauses: first forces x1 != x2,
  // second forces -x1 != -x2, i.e. also x1 != x2 — still satisfiable!
  NaeFormula f1 = NaeFormula::Parse("1 2; -1 -2");
  EXPECT_TRUE(NaeSolve(f1).assignment.has_value());
  // x1 x2 (NAE: differ) plus x1 -x2 (NAE: x1 != !x2 i.e. x1 == x2):
  // contradiction.
  NaeFormula f2 = NaeFormula::Parse("1 2; 1 -2");
  EXPECT_FALSE(NaeSolve(f2).assignment.has_value());
}

TEST(NaeSolveTest, ComplementSymmetryRespected) {
  // Pinning var 0 false must not lose satisfiability.
  NaeFormula f = NaeFormula::Parse("1 2 3; -1 -2 -3; 1 -2 3");
  auto brute = NaeBruteForce(f);
  auto dpll = NaeSolve(f);
  EXPECT_EQ(brute.has_value(), dpll.assignment.has_value());
  if (dpll.assignment) {
    EXPECT_TRUE(f.Satisfied(*dpll.assignment));
  }
}

class NaeDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(NaeDifferentialTest, SolverMatchesBruteForce) {
  Rng rng(2200 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    uint32_t n = 4 + static_cast<uint32_t>(rng.Below(6));
    uint32_t m = 2 + static_cast<uint32_t>(rng.Below(3 * n));
    NaeFormula f = RandomNae3(n, m, rng.Next());
    auto brute = NaeBruteForce(f);
    auto dpll = NaeSolve(f);
    ASSERT_TRUE(dpll.decided);
    ASSERT_EQ(brute.has_value(), dpll.assignment.has_value())
        << f.ToString();
    if (dpll.assignment) {
      EXPECT_TRUE(f.Satisfied(*dpll.assignment));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaeDifferentialTest, ::testing::Range(0, 6));

TEST(NaeSolveTest, BudgetExhaustionReported) {
  NaeFormula f = RandomNae3(20, 60, 7);
  auto r = NaeSolve(f, /*node_budget=*/3);
  EXPECT_FALSE(r.decided);
}

// --- CAD solver ------------------------------------------------------------------

TEST(CadSolverTest, TrivialConsistentDatabase) {
  Database db;
  std::size_t r = db.AddRelation("R", {"A", "B"});
  db.relation(r).AddRow(&db.symbols(), {"x", "y"});
  CadResult res = CadConsistent(db, {});
  EXPECT_TRUE(res.consistent);
  ASSERT_EQ(res.weak_instance.size(), 1u);
}

TEST(CadSolverTest, HoleFilledFromColumnValues) {
  // R1(A): {x}; R2(B): {y}. Row 1's A-hole must take value x (only symbol
  // in d[A]); with FD B -> A forcing it to also match row 2's fill this
  // stays satisfiable.
  Database db;
  std::size_t r1 = db.AddRelation("R1", {"A"});
  db.relation(r1).AddRow(&db.symbols(), {"x"});
  std::size_t r2 = db.AddRelation("R2", {"B"});
  db.relation(r2).AddRow(&db.symbols(), {"y"});
  std::vector<Fd> fds = {*Fd::Parse(&db.universe(), "B -> A")};
  CadResult res = CadConsistent(db, fds);
  EXPECT_TRUE(res.consistent);
  RelAttrId a = *db.universe().Require("A");
  EXPECT_EQ(db.symbols().NameOf(res.weak_instance[1][a]), "x");
}

TEST(CadSolverTest, FdViolationAmongFixedCellsIsInconsistent) {
  Database db;
  std::size_t r = db.AddRelation("R", {"A", "B"});
  db.relation(r).AddRow(&db.symbols(), {"a", "b1"});
  db.relation(r).AddRow(&db.symbols(), {"a", "b2"});
  std::vector<Fd> fds = {*Fd::Parse(&db.universe(), "A -> B")};
  CadResult res = CadConsistent(db, fds);
  EXPECT_FALSE(res.consistent);
}

TEST(CadSolverTest, CadStricterThanOpenWorld) {
  // R1(A,B): (a,b); R2(A,C): (a2,c). Under open world, B for row 2 can be
  // fresh; under CAD it must be 'b', and with the FD C -> B ... still fine.
  // Make it fail: R1(A,B) = {(a,b)}, R2(C): {(c)}; FD C -> A. Row 2 must
  // fill A from d[A] = {a}; fine. Now add R3(A B): {(a, b2)} with FD
  // A -> B: rows 1,3 clash on fixed cells. Instead exercise a hole-driven
  // failure: d[B] = {b1, b2} pinned by two rows of R1 and FD C -> B with
  // two C-sharing rows needing different B fills.
  Database db;
  std::size_t r1 = db.AddRelation("R1", {"A", "B"});
  db.relation(r1).AddRow(&db.symbols(), {"a1", "b1"});
  db.relation(r1).AddRow(&db.symbols(), {"a2", "b2"});
  std::size_t r2 = db.AddRelation("R2", {"A", "C"});
  db.relation(r2).AddRow(&db.symbols(), {"a1", "c"});
  db.relation(r2).AddRow(&db.symbols(), {"a2", "c"});
  // FDs: A -> B pins row3.B = b1, row4.B = b2; C -> B forces row3.B =
  // row4.B: contradiction. Open-world Honeyman reaches the same verdict
  // here because the clash is between constants...
  std::vector<Fd> fds = {*Fd::Parse(&db.universe(), "A -> B"),
                         *Fd::Parse(&db.universe(), "C -> B")};
  EXPECT_FALSE(CadConsistent(db, fds).consistent);

  // A case where open-world succeeds but CAD fails: single relation
  // R(A,B) = {(a1,b1),(a2,b2)} plus R2(C) = {(c)}, FDs C -> A and C -> B
  // with d restricted so that the C row's A,B fills must pick existing
  // symbols — any pick works. Tighten with A -> B: pick A=a1 forces B=b1;
  // consistent. Force failure by also demanding B -> A and crossing pins:
  // R3(A C): {(a1,c)}, R4(B C): {(b2,c)}. Then C -> A gives A=a1, C -> B
  // gives B=b2, but A -> B demands B=b1: inconsistent under both
  // semantics. True CAD-vs-open separation needs invented values:
  Database db2;
  std::size_t s1 = db2.AddRelation("R1", {"A", "B"});
  db2.relation(s1).AddRow(&db2.symbols(), {"a1", "b1"});
  std::size_t s2 = db2.AddRelation("R2", {"B"});
  db2.relation(s2).AddRow(&db2.symbols(), {"b2"});
  // Open world: weak instance pads row 2's A with a fresh symbol; B -> A
  // is satisfiable. CAD: row 2's A must be a1 (the only symbol in d[A]);
  // then A -> B forces b1 = b2? No: A -> B on rows (a1,b1), (a1,b2):
  // violation. So CAD-inconsistent, open-world consistent.
  std::vector<Fd> fds2 = {*Fd::Parse(&db2.universe(), "A -> B")};
  EXPECT_FALSE(CadConsistent(db2, fds2).consistent);
  // (Open-world consistency of db2 is checked in chase_test-style tests;
  // here assert the solver's verdict only.)
}

TEST(CadSolverTest, BudgetExhaustion) {
  NaeFormula f = RandomNae3(6, 14, 99);
  Database db;
  CadReduction red = *ReduceNaeToCad(f, &db);
  CadResult res = CadConsistent(db, red.fds, /*node_budget=*/2);
  EXPECT_FALSE(res.decided);
}

// --- Theorem 11 reduction ---------------------------------------------------------

TEST(ReductionTest, Figure3Instance) {
  // The paper's example: n = 4 variables, clause c1 = x1 v x2 v (not x3).
  NaeFormula f;
  f.num_vars = 4;
  f.clauses.push_back(NaeClause{{0, true}, {1, true}, {2, false}});
  Database db;
  CadReduction red = *ReduceNaeToCad(f, &db);
  // R0 + one relation per clause (original + mirror padding).
  EXPECT_EQ(db.num_relations(), 1u + red.padded.clauses.size());
  EXPECT_EQ(red.padded.num_vars, 8u);   // 4 vars + 4 mirrors
  EXPECT_EQ(red.padded.clauses.size(), 9u);  // 1 original + 2 per variable
  // R0 has two tuples sharing the A value.
  const Relation& r0 = db.relation(0);
  EXPECT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0.arity(), 1u + red.padded.num_vars);
  // The clause relation's scheme omits A1, A2, A3 (clause variables).
  const Relation& r1 = db.relation(1);
  RelAttrId a1 = *db.universe().Require("A1");
  RelAttrId a4 = *db.universe().Require("A4");
  EXPECT_FALSE(r1.schema().Contains(a1));
  EXPECT_TRUE(r1.schema().Contains(a4));
  // FDs: B_i -> A_i for i = 1..6 plus one per clause.
  EXPECT_EQ(red.fds.size(), red.padded.num_vars + red.padded.clauses.size());
  // The formula is NAE-satisfiable, so the instance is CAD-consistent.
  CadResult res = CadConsistent(db, red.fds);
  EXPECT_TRUE(res.consistent);
  auto assignment = *DecodeCadAssignment(db, red, res);
  EXPECT_TRUE(red.padded.Satisfied(assignment));
}

TEST(ReductionTest, RejectsBadClauses) {
  Database db;
  NaeFormula f;
  f.num_vars = 2;
  f.clauses.push_back(NaeClause{{0, true}});  // too short
  EXPECT_FALSE(ReduceNaeToCad(f, &db).ok());
  NaeFormula g;
  g.num_vars = 2;
  g.clauses.push_back(NaeClause{{0, true}, {0, false}});  // repeated var
  Database db2;
  EXPECT_FALSE(ReduceNaeToCad(g, &db2).ok());
}

class ReductionEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ReductionEquivalenceTest, NaeSatisfiableIffCadConsistent) {
  Rng rng(3100 + GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    uint32_t n = 3 + static_cast<uint32_t>(rng.Below(3));
    uint32_t m = 2 + static_cast<uint32_t>(rng.Below(2 * n));
    NaeFormula f = RandomNae3(n, m, rng.Next());
    bool sat = NaeBruteForce(f).has_value();
    Database db;
    CadReduction red = *ReduceNaeToCad(f, &db);
    CadResult res = CadConsistent(db, red.fds, /*node_budget=*/5000000);
    ASSERT_TRUE(res.decided) << f.ToString();
    EXPECT_EQ(res.consistent, sat) << f.ToString();
    if (res.consistent) {
      auto assignment = *DecodeCadAssignment(db, red, res);
      EXPECT_TRUE(red.padded.Satisfied(assignment)) << f.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionEquivalenceTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace psem
