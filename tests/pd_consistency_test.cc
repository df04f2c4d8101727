// Tests for the polynomial consistency test of Theorem 12: database +
// arbitrary PDs, via normalization and the chase (Lemma 12.1), validated
// against direct satisfaction checks and hand-constructed satisfying
// interpretations.

#include <gtest/gtest.h>

#include "consistency/pd_consistency.h"
#include "core/fpd.h"
#include "graph/graph.h"
#include "partition/canonical.h"
#include "relational/dependency.h"
#include "util/rng.h"

namespace psem {
namespace {

TEST(PdConsistencyTest, EmptyTheoryAlwaysConsistent) {
  Database db;
  std::size_t r = db.AddRelation("R", {"A", "B"});
  db.relation(r).AddRow(&db.symbols(), {"x", "y"});
  ExprArena arena;
  auto report = *PdConsistent(&db, arena, {});
  EXPECT_TRUE(report.consistent);
}

TEST(PdConsistencyTest, FpdOnlyMatchesHoneyman) {
  // For FPD-only E the test is exactly the weak-satisfaction test of [19].
  Database db;
  std::size_t r1 = db.AddRelation("R1", {"A", "B"});
  db.relation(r1).AddRow(&db.symbols(), {"a", "b1"});
  std::size_t r2 = db.AddRelation("R2", {"A", "B"});
  db.relation(r2).AddRow(&db.symbols(), {"a", "b2"});
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("A <= B")};  // the FD A -> B
  auto report = *PdConsistent(&db, arena, pds);
  EXPECT_FALSE(report.consistent);

  Database db2;
  r1 = db2.AddRelation("R1", {"A", "B"});
  db2.relation(r1).AddRow(&db2.symbols(), {"a", "b1"});
  r2 = db2.AddRelation("R2", {"A", "B"});
  db2.relation(r2).AddRow(&db2.symbols(), {"a", "b1"});
  auto report2 = *PdConsistent(&db2, arena, pds);
  EXPECT_TRUE(report2.consistent);
}

TEST(PdConsistencyTest, GraphRelationWithConnectivityPd) {
  // Example e: the encoded graph relation together with C = A + B is
  // consistent (the canonical interpretation satisfies both).
  Database db;
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  std::size_t ri = EncodeGraphRelation(g, &db);
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("C = A+B")};
  // Sanity: the relation itself satisfies the PD.
  EXPECT_TRUE(*RelationSatisfiesPd(db, db.relation(ri), arena, pds[0]));
  auto report = *PdConsistent(&db, arena, pds);
  EXPECT_TRUE(report.consistent);
  EXPECT_EQ(report.num_sum_uppers, 1u);
}

TEST(PdConsistencyTest, GraphRelationWithWrongComponents) {
  // Mislabel a component so that two connected tuples disagree on C: with
  // C = A + B, both A -> C consequences clash in the chase.
  Database db;
  std::size_t ri = db.AddRelation("edges", {"A", "B", "C"});
  Relation& r = db.relation(ri);
  r.AddRow(&db.symbols(), {"v0", "v1", "comp0"});
  r.AddRow(&db.symbols(), {"v1", "v2", "comp1"});  // v1 in both -> A value v1 twice? columns differ
  // Force a direct clash: same A value, different C.
  r.AddRow(&db.symbols(), {"v0", "v9", "comp9"});
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("C = A+B")};
  auto report = *PdConsistent(&db, arena, pds);
  // A -> C is a consequence of C = A+B; rows 1 and 3 share A=v0 with
  // different C constants: inconsistent.
  EXPECT_FALSE(report.consistent);
}

TEST(PdConsistencyTest, SatisfyingSingleRelationIsAlwaysConsistent) {
  // If a single full-width relation satisfies E directly, then the
  // database {r} is consistent with E (r itself induces an interpretation;
  // Theorem 7 direction).
  Rng rng(555);
  ExprArena arena;
  std::vector<Pd> candidate_pds = {
      *arena.ParsePd("C = A+B"),
      *arena.ParsePd("C = A*B"),
      *arena.ParsePd("A <= B"),
      *arena.ParsePd("C <= A+B"),
  };
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Database db;
    std::size_t ri = db.AddRelation("R", {"A", "B", "C"});
    Relation& r = db.relation(ri);
    int rows = 1 + static_cast<int>(rng.Below(5));
    for (int i = 0; i < rows; ++i) {
      r.AddRow(&db.symbols(), {"a" + std::to_string(rng.Below(2)),
                               "b" + std::to_string(rng.Below(2)),
                               "c" + std::to_string(rng.Below(2))});
    }
    for (const Pd& pd : candidate_pds) {
      if (*RelationSatisfiesPd(db, r, arena, pd)) {
        Database copy;  // PdConsistent mutates the universe; rebuild.
        std::size_t ci = copy.AddRelation("R", {"A", "B", "C"});
        for (const Tuple& t : r.rows()) {
          copy.relation(ci).AddRow(&copy.symbols(),
                                   {db.symbols().NameOf(t[0]),
                                    db.symbols().NameOf(t[1]),
                                    db.symbols().NameOf(t[2])});
        }
        auto report = *PdConsistent(&copy, arena, {pd});
        EXPECT_TRUE(report.consistent) << arena.ToString(pd);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10);  // the sweep actually exercised the property
}

TEST(PdConsistencyTest, ContradictoryPdsDetected) {
  // A = B forces every A-value pair to merge; two relations pinning the
  // same B to different A constants clash.
  Database db;
  std::size_t r1 = db.AddRelation("R1", {"A", "B"});
  db.relation(r1).AddRow(&db.symbols(), {"a1", "b"});
  std::size_t r2 = db.AddRelation("R2", {"A", "B"});
  db.relation(r2).AddRow(&db.symbols(), {"a2", "b"});
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("A = B")};
  auto report = *PdConsistent(&db, arena, pds);
  EXPECT_FALSE(report.consistent);
}

TEST(PdConsistencyTest, MonotoneInTheory) {
  // Adding PDs can only destroy consistency, never restore it.
  Rng rng(808);
  ExprArena arena;
  std::vector<Pd> pool = {
      *arena.ParsePd("A <= B"), *arena.ParsePd("B <= C"),
      *arena.ParsePd("C = A+B"), *arena.ParsePd("A = B*C")};
  for (int trial = 0; trial < 20; ++trial) {
    auto build = [&](Database* db) {
      std::size_t r1 = db->AddRelation("R1", {"A", "B"});
      std::size_t r2 = db->AddRelation("R2", {"B", "C"});
      for (int i = 0; i < 3; ++i) {
        db->relation(r1).AddRow(&db->symbols(),
                                {"a" + std::to_string(rng.Below(2)),
                                 "b" + std::to_string(rng.Below(2))});
        db->relation(r2).AddRow(&db->symbols(),
                                {"b" + std::to_string(rng.Below(2)),
                                 "c" + std::to_string(rng.Below(2))});
      }
    };
    // Same random content for both databases.
    Rng saved = rng;
    Database small_db;
    build(&small_db);
    rng = saved;
    Database big_db;
    build(&big_db);

    std::vector<Pd> small_e = {pool[trial % pool.size()]};
    std::vector<Pd> big_e = small_e;
    big_e.push_back(pool[(trial + 1) % pool.size()]);
    bool small_ok = PdConsistent(&small_db, arena, small_e)->consistent;
    bool big_ok = PdConsistent(&big_db, arena, big_e)->consistent;
    if (big_ok) {
      EXPECT_TRUE(small_ok);
    }
  }
}

TEST(PdConsistencyTest, ReportCountsArePlausible) {
  Database db;
  std::size_t r = db.AddRelation("R", {"A", "B", "C"});
  db.relation(r).AddRow(&db.symbols(), {"x", "y", "z"});
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("C = A+B"), *arena.ParsePd("A <= B")};
  auto report = *PdConsistent(&db, arena, pds);
  EXPECT_TRUE(report.consistent);
  EXPECT_GT(report.num_fpds, 0u);
  EXPECT_GE(report.chase_rounds, 1u);
}

}  // namespace
}  // namespace psem
