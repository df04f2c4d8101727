// Tests for the relational substrate: schemas, relations, set semantics,
// the relational algebra, and FD/MVD satisfaction (Section 2.1).

#include <gtest/gtest.h>

#include <algorithm>

#include "relational/algebra.h"
#include "relational/dependency.h"
#include "relational/relation.h"

namespace psem {
namespace {

class RelationalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // emp(Name, Dept), dept(Dept, Head).
    emp_ = db_.AddRelation("emp", {"Name", "Dept"});
    db_.relation(emp_).AddRow(&db_.symbols(), {"ann", "sales"});
    db_.relation(emp_).AddRow(&db_.symbols(), {"bob", "sales"});
    db_.relation(emp_).AddRow(&db_.symbols(), {"eve", "eng"});
    dept_ = db_.AddRelation("dept", {"Dept", "Head"});
    db_.relation(dept_).AddRow(&db_.symbols(), {"sales", "kim"});
    db_.relation(dept_).AddRow(&db_.symbols(), {"eng", "lee"});
  }
  Database db_;
  std::size_t emp_, dept_;
};

TEST_F(RelationalFixture, SetSemantics) {
  Relation& r = db_.relation(emp_);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_FALSE(r.AddRow(&db_.symbols(), {"ann", "sales"}));  // duplicate
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.AddRow(&db_.symbols(), {"ann", "eng"}));
  EXPECT_EQ(r.size(), 4u);
}

TEST_F(RelationalFixture, SchemaQueries) {
  const RelationSchema& s = db_.relation(emp_).schema();
  EXPECT_EQ(s.arity(), 2u);
  RelAttrId dept = *db_.universe().Require("Dept");
  EXPECT_EQ(s.ColumnOf(dept), 1u);
  EXPECT_TRUE(s.Contains(dept));
  EXPECT_EQ(s.ColumnOf(999), RelationSchema::kNpos);
}

TEST_F(RelationalFixture, DatabaseColumnValues) {
  RelAttrId dept = *db_.universe().Require("Dept");
  auto vals = db_.ColumnValues(dept);
  EXPECT_EQ(vals.size(), 2u);  // sales, eng across both relations
}

TEST_F(RelationalFixture, AllAttributes) {
  AttrSet all = db_.AllAttributes();
  EXPECT_EQ(all.Count(), 3u);  // Name, Dept, Head
}

TEST_F(RelationalFixture, Projection) {
  RelAttrId dept = *db_.universe().Require("Dept");
  Relation p = *Project(db_.relation(emp_), {dept});
  EXPECT_EQ(p.size(), 2u);  // sales, eng — dedup
  EXPECT_FALSE(Project(db_.relation(emp_), {999}).ok());
}

TEST_F(RelationalFixture, Selection) {
  RelAttrId dept = *db_.universe().Require("Dept");
  ValueId sales = db_.symbols().Intern("sales");
  Relation s = *SelectEq(db_.relation(emp_), dept, sales);
  EXPECT_EQ(s.size(), 2u);
}

TEST_F(RelationalFixture, NaturalJoin) {
  Relation j = NaturalJoin(db_.relation(emp_), db_.relation(dept_));
  EXPECT_EQ(j.arity(), 3u);  // Name, Dept, Head
  EXPECT_EQ(j.size(), 3u);
  // Every employee row matched exactly one department.
  RelAttrId head = *db_.universe().Require("Head");
  Relation heads = *Project(j, {head});
  EXPECT_EQ(heads.size(), 2u);
}

TEST_F(RelationalFixture, JoinWithNoCommonAttributesIsProduct) {
  Database db;
  std::size_t a = db.AddRelation("a", {"X"});
  db.relation(a).AddRow(&db.symbols(), {"1"});
  db.relation(a).AddRow(&db.symbols(), {"2"});
  std::size_t b = db.AddRelation("b", {"Y"});
  db.relation(b).AddRow(&db.symbols(), {"p"});
  db.relation(b).AddRow(&db.symbols(), {"q"});
  Relation j = NaturalJoin(db.relation(a), db.relation(b));
  EXPECT_EQ(j.size(), 4u);
  Relation cp = *CartesianProduct(db.relation(a), db.relation(b));
  EXPECT_EQ(cp.size(), 4u);
}

TEST_F(RelationalFixture, UnionDifferenceRequireSameScheme) {
  EXPECT_FALSE(Union(db_.relation(emp_), db_.relation(dept_)).ok());
  EXPECT_FALSE(Difference(db_.relation(emp_), db_.relation(dept_)).ok());
  Relation u = *Union(db_.relation(emp_), db_.relation(emp_));
  EXPECT_EQ(u.size(), 3u);
  Relation d = *Difference(db_.relation(emp_), db_.relation(emp_));
  EXPECT_EQ(d.size(), 0u);
}

TEST_F(RelationalFixture, UnionAndDifferenceContent) {
  Database db;
  std::size_t a = db.AddRelation("a", {"X"});
  db.relation(a).AddRow(&db.symbols(), {"1"});
  db.relation(a).AddRow(&db.symbols(), {"2"});
  std::size_t b = db.AddRelation("b", {"X"});
  // Same attribute list (X), different relation name — union is legal.
  db.relation(b).AddRow(&db.symbols(), {"2"});
  db.relation(b).AddRow(&db.symbols(), {"3"});
  EXPECT_EQ(Union(db.relation(a), db.relation(b))->size(), 3u);
  Relation diff = *Difference(db.relation(a), db.relation(b));
  EXPECT_EQ(diff.size(), 1u);
  EXPECT_EQ(db.symbols().NameOf(diff.row(0)[0]), "1");
}

TEST_F(RelationalFixture, CartesianProductRequiresDisjointSchemes) {
  EXPECT_FALSE(
      CartesianProduct(db_.relation(emp_), db_.relation(emp_)).ok());
}

TEST_F(RelationalFixture, Rename) {
  RelAttrId dept = *db_.universe().Require("Dept");
  RelAttrId dept2 = db_.universe().Intern("Dept2");
  Relation rn = Rename(db_.relation(emp_), "emp2", {dept}, {dept2});
  EXPECT_EQ(rn.schema().name, "emp2");
  EXPECT_TRUE(rn.schema().Contains(dept2));
  EXPECT_FALSE(rn.schema().Contains(dept));
  EXPECT_EQ(rn.size(), 3u);
}

TEST_F(RelationalFixture, RestrictProjectsTupleOnAttrSet) {
  const Relation& r = db_.relation(emp_);
  AttrSet just_dept = db_.universe().EmptySet();
  just_dept.Set(*db_.universe().Require("Dept"));
  Tuple t = r.Restrict(r.row(0), just_dept);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(db_.symbols().NameOf(t[0]), "sales");
}

TEST_F(RelationalFixture, ToStringRendersTable) {
  std::string s = db_.relation(emp_).ToString(db_.universe(), db_.symbols());
  EXPECT_NE(s.find("Name"), std::string::npos);
  EXPECT_NE(s.find("ann"), std::string::npos);
}

// --- dependencies ------------------------------------------------------------

TEST(FdParseTest, ParsesAndPrints) {
  Universe u;
  Fd fd = *Fd::Parse(&u, "A B -> C");
  EXPECT_EQ(fd.ToString(u), "A B -> C");
  EXPECT_EQ(fd.lhs.Count(), 2u);
  EXPECT_EQ(fd.rhs.Count(), 1u);
  EXPECT_TRUE(Fd::Parse(&u, "A,B -> C,D").ok());
  EXPECT_FALSE(Fd::Parse(&u, "A B C").ok());
  EXPECT_FALSE(Fd::Parse(&u, "-> C").ok());
  EXPECT_FALSE(Fd::Parse(&u, "A ->").ok());
  EXPECT_FALSE(Fd::Parse(&u, "A ->> B").ok());  // MVD arrow rejected
}

TEST(FdSatisfactionTest, Basic) {
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B"});
  Relation& r = db.relation(ri);
  r.AddRow(&db.symbols(), {"x", "1"});
  r.AddRow(&db.symbols(), {"x", "1"});
  r.AddRow(&db.symbols(), {"y", "2"});
  Fd fd = *Fd::Parse(&db.universe(), "A -> B");
  EXPECT_TRUE(*SatisfiesFd(r, fd));
  r.AddRow(&db.symbols(), {"x", "3"});
  EXPECT_FALSE(*SatisfiesFd(r, fd));
}

TEST(FdSatisfactionTest, AttributesMustBeInScheme) {
  Database db;
  std::size_t ri = db.AddRelation("R", {"A"});
  db.universe().Intern("Z");
  Fd fd = *Fd::Parse(&db.universe(), "A -> Z");
  EXPECT_FALSE(SatisfiesFd(db.relation(ri), fd).ok());
}

TEST(MvdSatisfactionTest, Theorem5Relations) {
  // Figure 2: r1 satisfies the MVD A ->> B; r2 does not.
  Database db;
  std::size_t i1 = db.AddRelation("r1", {"A", "B", "C"});
  Relation& r1 = db.relation(i1);
  r1.AddRow(&db.symbols(), {"a", "b1", "c1"});
  r1.AddRow(&db.symbols(), {"a", "b1", "c2"});
  r1.AddRow(&db.symbols(), {"a", "b2", "c1"});
  r1.AddRow(&db.symbols(), {"a", "b2", "c2"});
  std::size_t i2 = db.AddRelation("r2", {"A", "B", "C"});
  Relation& r2 = db.relation(i2);
  r2.AddRow(&db.symbols(), {"a", "b1", "c1"});
  r2.AddRow(&db.symbols(), {"a", "b2", "c2"});
  r2.AddRow(&db.symbols(), {"a", "b1", "c2"});
  Mvd mvd = *Mvd::Parse(&db.universe(), "A ->> B");
  EXPECT_TRUE(*SatisfiesMvd(r1, mvd));
  EXPECT_FALSE(*SatisfiesMvd(r2, mvd));
}

TEST(MvdSatisfactionTest, FdImpliesMvd) {
  // Any relation satisfying A -> B satisfies A ->> B.
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B", "C"});
  Relation& r = db.relation(ri);
  r.AddRow(&db.symbols(), {"a1", "b1", "c1"});
  r.AddRow(&db.symbols(), {"a1", "b1", "c2"});
  r.AddRow(&db.symbols(), {"a2", "b2", "c1"});
  Fd fd = *Fd::Parse(&db.universe(), "A -> B");
  Mvd mvd = *Mvd::Parse(&db.universe(), "A ->> B");
  ASSERT_TRUE(*SatisfiesFd(r, fd));
  EXPECT_TRUE(*SatisfiesMvd(r, mvd));
}

TEST(MvdSatisfactionTest, TrivialMvdAlwaysHolds) {
  // X ->> Y with X u Y = U is trivial.
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B"});
  Relation& r = db.relation(ri);
  r.AddRow(&db.symbols(), {"a1", "b1"});
  r.AddRow(&db.symbols(), {"a1", "b2"});
  Mvd mvd = *Mvd::Parse(&db.universe(), "A ->> B");
  EXPECT_TRUE(*SatisfiesMvd(r, mvd));
}

TEST(SatisfiesAllFdsTest, Conjunction) {
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B", "C"});
  Relation& r = db.relation(ri);
  r.AddRow(&db.symbols(), {"a", "b", "c"});
  r.AddRow(&db.symbols(), {"a", "b", "d"});
  std::vector<Fd> fds = {*Fd::Parse(&db.universe(), "A -> B"),
                         *Fd::Parse(&db.universe(), "A -> C")};
  EXPECT_FALSE(*SatisfiesAllFds(r, fds));
  EXPECT_TRUE(*SatisfiesAllFds(r, {fds[0]}));
}

TEST(RelationIndexTest, DedupesAndKeepsInsertionOrderAcrossGrowth) {
  // 10^5 distinct tuples cross many doublings of the membership table;
  // duplicates of earlier tuples are interleaved throughout.
  constexpr uint32_t kRows = 100000;
  auto tuple = [](uint32_t i) { return Tuple{i % 317, i / 317, i % 5}; };
  Database db;
  Relation& r = db.relation(db.AddRelation("R", {"A", "B", "C"}));
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(r.AddTuple(tuple(i)));
    if (i % 3 == 0) {
      ASSERT_FALSE(r.AddTuple(tuple(i / 2)));
    }
  }
  ASSERT_EQ(r.size(), kRows);
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(r.row(i), tuple(i));
    ASSERT_TRUE(r.Contains(tuple(i)));
  }
  EXPECT_FALSE(r.Contains(Tuple{0, kRows, 0}));
  EXPECT_FALSE(r.Contains(Tuple{1, 0, 0}));  // only i = 1 has A = 1, B = 0
  EXPECT_FALSE(r.Contains(Tuple{316, 0, 0}));  // and i = 316 has C = 1

  // A copy and a moved-to relation keep the index with the rows.
  Relation copy = r;
  EXPECT_FALSE(copy.AddTuple(tuple(12345)));
  EXPECT_TRUE(copy.AddTuple(Tuple{0, kRows, 0}));
  EXPECT_EQ(copy.size(), kRows + 1);
  EXPECT_EQ(r.size(), kRows);
  EXPECT_FALSE(r.Contains(Tuple{0, kRows, 0}));
  Relation moved = std::move(copy);
  EXPECT_TRUE(moved.Contains(Tuple{0, kRows, 0}));
  EXPECT_FALSE(moved.AddTuple(tuple(kRows - 1)));
  EXPECT_FALSE(moved.AddTuple(Tuple{0, kRows, 0}));
  EXPECT_EQ(moved.size(), kRows + 1);
  EXPECT_EQ(moved.rows().back(), (Tuple{0, kRows, 0}));
}

TEST(RelationIndexTest, EmptyRelationContainsNothing) {
  Relation r(RelationSchema{"R", {0, 1}});
  EXPECT_FALSE(r.Contains(Tuple{0, 0}));
  EXPECT_TRUE(r.AddTuple(Tuple{0, 0}));
  EXPECT_TRUE(r.Contains(Tuple{0, 0}));
  EXPECT_FALSE(r.Contains(Tuple{0, 1}));
}

}  // namespace
}  // namespace psem
