// Integration tests for the PdTheory facade and the FPD bridge: the
// user-facing workflow of building a theory, asking implication,
// equivalence, identity, and relation-satisfaction questions.

#include <gtest/gtest.h>

#include "core/fpd.h"
#include "core/proof.h"
#include "core/theory.h"
#include "relational/dependency.h"
#include "util/rng.h"

namespace psem {
namespace {

TEST(PdTheoryTest, EndToEndWorkflow) {
  PdTheory t;
  ASSERT_TRUE(t.AddParsed("A = A*B").ok());   // A -> B
  ASSERT_TRUE(t.AddParsed("B <= C").ok());    // B -> C
  ASSERT_TRUE(t.AddParsed("D = B+C").ok());   // D is the B/C connectivity
  EXPECT_TRUE(*t.ImpliesParsed("A <= C"));
  EXPECT_TRUE(*t.ImpliesParsed("B <= D"));
  EXPECT_TRUE(*t.ImpliesParsed("A <= D"));
  EXPECT_FALSE(*t.ImpliesParsed("D <= A"));
  EXPECT_FALSE(t.ImpliesParsed("garbage !").ok());
}

TEST(PdTheoryTest, AddInvalidatesEngine) {
  PdTheory t;
  ASSERT_TRUE(t.AddParsed("A <= B").ok());
  EXPECT_FALSE(*t.ImpliesParsed("A <= C"));
  ASSERT_TRUE(t.AddParsed("B <= C").ok());
  EXPECT_TRUE(*t.ImpliesParsed("A <= C"));
}

TEST(PdTheoryTest, AddGrowsTheLiveEngine) {
  const char* base[] = {"A = A*B", "C <= D+E", "D = A+B"};
  const char* added[] = {"E <= A*C", "B = B*C", "A*(B*C) <= E"};
  const char* queries[] = {"A <= C",     "E <= A",       "A*B <= D+E",
                           "B <= A*C+E", "C+D <= A+B+E", "A*C <= E*D"};
  PdTheory grown;
  for (const char* pd : base) ASSERT_TRUE(grown.AddParsed(pd).ok());
  for (const char* q : queries) ASSERT_TRUE(grown.ImpliesParsed(q).ok());
  ASSERT_EQ(grown.engine().stats().cold_closures, 1u);
  for (const char* pd : added) ASSERT_TRUE(grown.AddParsed(pd).ok());
  // The engine that served the queries above is still the live one (a
  // rebuilt engine would not have closed yet).
  EXPECT_EQ(grown.engine().stats().cold_closures, 1u);

  PdTheory fresh;
  for (const char* pd : base) ASSERT_TRUE(fresh.AddParsed(pd).ok());
  for (const char* pd : added) ASSERT_TRUE(fresh.AddParsed(pd).ok());
  for (const char* q : queries) {
    EXPECT_EQ(*grown.ImpliesParsed(q), *fresh.ImpliesParsed(q)) << q;
  }
  // Still one cold closure for the whole lifetime: Add warm-started the
  // engine built by the first queries rather than discarding it.
  EXPECT_EQ(grown.engine().stats().cold_closures, 1u);
  EXPECT_GE(grown.engine().stats().incremental_closures, 1u);
}

// E is stored once, in the engine: two Adds of one PD leave one copy,
// whether or not engine() was called between them, and pds() and
// engine().constraints() agree before and after engine() is first called.
TEST(PdTheoryTest, DuplicateAddIsOrderIndependent) {
  for (bool engine_first : {false, true}) {
    SCOPED_TRACE(engine_first ? "engine() between the Adds"
                              : "engine() after the Adds");
    PdTheory t;
    ASSERT_TRUE(t.AddParsed("A <= B*C").ok());
    if (engine_first) {
      EXPECT_EQ(t.engine().constraints().size(), 1u);
    }
    ASSERT_TRUE(t.AddParsed("A <= B*C").ok());
    EXPECT_EQ(t.pds().size(), 1u);
    EXPECT_EQ(t.engine().constraints().size(), 1u);
    EXPECT_EQ(t.pds().size(), 1u);
    EXPECT_EQ(&t.pds(), &t.engine().constraints());
    EXPECT_TRUE(*t.ImpliesParsed("A <= B"));
  }
}

TEST(PdTheoryTest, EquivalentPds) {
  PdTheory t;
  Pd a = *t.arena().ParsePd("X = X*Y");
  Pd b = *t.arena().ParsePd("Y = Y+X");
  Pd c = *t.arena().ParsePd("X <= Y");
  EXPECT_TRUE(t.Equivalent(a, b));
  EXPECT_TRUE(t.Equivalent(b, c));
  Pd d = *t.arena().ParsePd("Y <= X");
  EXPECT_FALSE(t.Equivalent(a, d));
  // Equivalence is relative to the theory: with Y <= X added, X <= Y and
  // X = Y become equivalent.
  ASSERT_TRUE(t.AddParsed("Y <= X").ok());
  Pd e = *t.arena().ParsePd("X = Y");
  EXPECT_TRUE(t.Equivalent(c, e));
}

TEST(PdTheoryTest, IsIdentity) {
  PdTheory t;
  EXPECT_TRUE(t.IsIdentity(*t.arena().ParsePd("A*(A+B) = A")));
  EXPECT_TRUE(t.IsIdentity(*t.arena().ParsePd("A*B <= A")));
  EXPECT_FALSE(t.IsIdentity(*t.arena().ParsePd("A = B")));
  // IsIdentity ignores the theory (it is the E = {} fragment).
  ASSERT_TRUE(t.AddParsed("A = B").ok());
  EXPECT_FALSE(t.IsIdentity(*t.arena().ParsePd("A = B")));
  EXPECT_TRUE(*t.ImpliesParsed("A = B"));
}

TEST(PdTheoryTest, SatisfiedByRelation) {
  PdTheory t;
  ASSERT_TRUE(t.AddParsed("A <= B").ok());
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B"});
  Relation& r = db.relation(ri);
  r.AddRow(&db.symbols(), {"a1", "b1"});
  r.AddRow(&db.symbols(), {"a2", "b1"});
  EXPECT_TRUE(*t.SatisfiedBy(db, r));
  r.AddRow(&db.symbols(), {"a1", "b2"});
  EXPECT_FALSE(*t.SatisfiedBy(db, r));

  // Differential over random relations x theories: SatisfiedBy (I(r)
  // built once, one memo across E) agrees with per-PD RelationSatisfiesPd.
  const char* texts[] = {"A",     "B",     "C",     "A*B", "A+B",
                         "B*C",   "B+C",   "A*C",   "A+C", "A*B+C",
                         "(A+B)*C"};
  Rng rng(0x5a7);
  int held = 0, failed = 0;
  for (int it = 0; it < 200; ++it) {
    PdTheory theory;
    std::vector<ExprId> exprs;
    for (const char* text : texts) {
      exprs.push_back(*theory.arena().Parse(text));
    }
    for (uint64_t k = rng.Below(4); k > 0; --k) {
      ExprId l = exprs[rng.Below(exprs.size())];
      ExprId rhs = exprs[rng.Below(exprs.size())];
      theory.Add(rng.Chance(1, 2) ? Pd::Eq(l, rhs) : Pd::Leq(l, rhs));
    }
    Database rdb;
    Relation& rel = rdb.relation(rdb.AddRelation("R", {"A", "B", "C"}));
    for (uint64_t k = rng.Below(6); k > 0; --k) {
      rel.AddRow(&rdb.symbols(), {"a" + std::to_string(rng.Below(2)),
                                  "b" + std::to_string(rng.Below(3)),
                                  "c" + std::to_string(rng.Below(2))});
    }
    bool want = true;
    for (const Pd& pd : theory.pds()) {
      Result<bool> one = RelationSatisfiesPd(rdb, rel, theory.arena(), pd);
      ASSERT_TRUE(one.ok());
      want = want && *one;
    }
    Result<bool> got = theory.SatisfiedBy(rdb, rel);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want) << "case " << it;
    ++(want ? held : failed);
  }
  EXPECT_GT(held, 0);
  EXPECT_GT(failed, 0);
}

TEST(PdTheoryTest, ImpliedPdsHoldInSatisfyingRelations) {
  // Soundness at the facade level: every relation satisfying E satisfies
  // all implied PDs (Theorem 8 d).
  PdTheory t;
  ASSERT_TRUE(t.AddParsed("C = A+B").ok());
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B", "C"});
  Relation& r = db.relation(ri);
  r.AddRow(&db.symbols(), {"a1", "b1", "c1"});
  r.AddRow(&db.symbols(), {"a1", "b2", "c1"});
  r.AddRow(&db.symbols(), {"a2", "b3", "c2"});
  ASSERT_TRUE(*t.SatisfiedBy(db, r));
  for (const char* q : {"A <= C", "B <= C", "C <= A+B", "A*B <= C"}) {
    Pd pd = *t.arena().ParsePd(q);
    ASSERT_TRUE(t.Implies(pd)) << q;
    EXPECT_TRUE(*RelationSatisfiesPd(db, r, t.arena(), pd)) << q;
  }
}

TEST(FpdBridgeTest, SpellingsRoundTrip) {
  Universe u;
  ExprArena arena;
  Fd fd = *Fd::Parse(&u, "A B -> C");
  auto spellings = FpdSpellings(u, &arena, fd);
  ASSERT_EQ(spellings.size(), 3u);
  EXPECT_EQ(arena.ToString(spellings[0]), "A*B = A*B*C");
  EXPECT_EQ(arena.ToString(spellings[1]), "C = C+A*B");
  EXPECT_EQ(arena.ToString(spellings[2]), "A*B <= C");
}

TEST(FpdBridgeTest, FpdToFdRecognizesForms) {
  Universe u;
  ExprArena arena;
  // X <= Y form. (Attribute print order follows universe interning order.)
  u.Intern("A");
  u.Intern("B");
  u.Intern("C");
  auto fd1 = FpdToFd(arena, &u, *arena.ParsePd("A*B <= C"));
  ASSERT_TRUE(fd1.has_value());
  EXPECT_EQ(fd1->ToString(u), "A B -> C");
  // X = X*Y form.
  auto fd2 = FpdToFd(arena, &u, *arena.ParsePd("A = A*C"));
  ASSERT_TRUE(fd2.has_value());
  EXPECT_EQ(fd2->ToString(u), "A -> C");
  // Not FPDs.
  EXPECT_FALSE(FpdToFd(arena, &u, *arena.ParsePd("A = B+C")).has_value());
  EXPECT_FALSE(FpdToFd(arena, &u, *arena.ParsePd("A <= B+C")).has_value());
  EXPECT_FALSE(FpdToFd(arena, &u, *arena.ParsePd("A = B")).has_value());
}

TEST(FpdBridgeTest, FdToFpdAndBack) {
  Universe u;
  ExprArena arena;
  Fd fd = *Fd::Parse(&u, "A C -> B D");
  Pd pd = FdToFpd(u, &arena, fd);
  auto back = FpdToFd(arena, &u, pd);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->lhs, fd.lhs);
  EXPECT_EQ(back->rhs, fd.rhs);
}

TEST(PdTheoryTest, ExplainProducesValidProof) {
  PdTheory t;
  ASSERT_TRUE(t.AddParsed("A <= B").ok());
  ASSERT_TRUE(t.AddParsed("B <= C").ok());
  Pd query = *t.arena().ParsePd("A <= C");
  auto proof = t.Explain(query);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(ValidateProof(t.arena(), t.pds(), *proof).ok());
  auto text = t.ExplainText("A <= C");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("transitivity"), std::string::npos);
  EXPECT_FALSE(t.Explain(*t.arena().ParsePd("C <= A")).ok());
}

TEST(PdTheoryTest, FindCounterexampleAgreesWithImplies) {
  PdTheory t;
  ASSERT_TRUE(t.AddParsed("A <= B").ok());
  Pd implied = *t.arena().ParsePd("A*C <= B");
  Pd not_implied = *t.arena().ParsePd("B <= A");
  EXPECT_TRUE(t.Implies(implied));
  EXPECT_FALSE(t.FindCounterexample(implied).has_value());
  EXPECT_FALSE(t.Implies(not_implied));
  auto model = t.FindCounterexample(not_implied);
  ASSERT_TRUE(model.has_value());
  EXPECT_FALSE(*model->interpretation.Satisfies(t.arena(), not_implied));
}

}  // namespace
}  // namespace psem
