// Tests for the partition-expression arena: hash-consing, parsing,
// printing, subexpression enumeration, PD parsing.

#include <gtest/gtest.h>

#include <set>

#include "lattice/expr.h"

namespace psem {
namespace {

TEST(ExprArenaTest, AttrInterning) {
  ExprArena a;
  ExprId x = a.Attr("A");
  ExprId y = a.Attr("B");
  EXPECT_NE(x, y);
  EXPECT_EQ(a.Attr("A"), x);
  EXPECT_TRUE(a.IsAttr(x));
  EXPECT_EQ(a.AttrName(a.AttrOf(x)), "A");
  EXPECT_EQ(a.num_attrs(), 2u);
}

TEST(ExprArenaTest, HashConsingGivesStructuralIdentity) {
  ExprArena a;
  ExprId ab1 = a.Product(a.Attr("A"), a.Attr("B"));
  ExprId ab2 = a.Product(a.Attr("A"), a.Attr("B"));
  EXPECT_EQ(ab1, ab2);
  ExprId ba = a.Product(a.Attr("B"), a.Attr("A"));
  EXPECT_NE(ab1, ba);  // no commutativity at the syntax level
  ExprId s = a.Sum(a.Attr("A"), a.Attr("B"));
  EXPECT_NE(ab1, s);  // operators distinguished
}

TEST(ExprArenaTest, ComplexityCountsOperators) {
  ExprArena a;
  ExprId e = *a.Parse("A*B + C*(D+E)");
  EXPECT_EQ(a.Complexity(e), 4u);
  EXPECT_EQ(a.TreeSize(e), 9u);
  EXPECT_EQ(a.Complexity(a.Attr("A")), 0u);
}

TEST(ExprParserTest, PrecedenceProductBindsTighter) {
  ExprArena a;
  ExprId e1 = *a.Parse("A+B*C");
  ExprId e2 = a.Sum(a.Attr("A"), a.Product(a.Attr("B"), a.Attr("C")));
  EXPECT_EQ(e1, e2);
}

TEST(ExprParserTest, LeftAssociativity) {
  ExprArena a;
  EXPECT_EQ(*a.Parse("A*B*C"),
            a.Product(a.Product(a.Attr("A"), a.Attr("B")), a.Attr("C")));
  EXPECT_EQ(*a.Parse("A+B+C"),
            a.Sum(a.Sum(a.Attr("A"), a.Attr("B")), a.Attr("C")));
}

TEST(ExprParserTest, ParenthesesOverride) {
  ExprArena a;
  EXPECT_EQ(*a.Parse("(A+B)*C"),
            a.Product(a.Sum(a.Attr("A"), a.Attr("B")), a.Attr("C")));
}

TEST(ExprParserTest, WhitespaceInsensitive) {
  ExprArena a;
  EXPECT_EQ(*a.Parse("  A *  ( B + C )"), *a.Parse("A*(B+C)"));
}

TEST(ExprParserTest, MultiCharIdentifiers) {
  ExprArena a;
  ExprId e = *a.Parse("employee_id * manager_id");
  EXPECT_EQ(a.ToString(e), "employee_id*manager_id");
}

TEST(ExprParserTest, Errors) {
  ExprArena a;
  EXPECT_FALSE(a.Parse("").ok());
  EXPECT_FALSE(a.Parse("A+").ok());
  EXPECT_FALSE(a.Parse("(A+B").ok());
  EXPECT_FALSE(a.Parse("A B").ok());
  EXPECT_FALSE(a.Parse("*A").ok());
  EXPECT_FALSE(a.Parse("A)(").ok());
  EXPECT_EQ(a.Parse("A+").status().code(), StatusCode::kInvalidArgument);
}

TEST(ExprPrinterTest, MinimalParentheses) {
  ExprArena a;
  EXPECT_EQ(a.ToString(*a.Parse("A+B*C")), "A+B*C");
  EXPECT_EQ(a.ToString(*a.Parse("(A+B)*C")), "(A+B)*C");
  EXPECT_EQ(a.ToString(*a.Parse("A*(B+C)")), "A*(B+C)");
  EXPECT_EQ(a.ToString(*a.Parse("A*B+C")), "A*B+C");
}

TEST(ExprPrinterTest, RoundTrip) {
  ExprArena a;
  for (const char* text :
       {"A", "A*B", "A+B", "A*(B+C*D)+E", "((A+B)+C)*D", "A*B*C+D+E*F"}) {
    ExprId e = *a.Parse(text);
    EXPECT_EQ(*a.Parse(a.ToString(e)), e) << text;
  }
}

TEST(ExprPrinterTest, RightNestedSameOperatorRoundTrips) {
  // A right operand of its own operator keeps its parentheses; dropping
  // them would re-parse left-nested, a different tree (and a different
  // interned id) for the same lattice term.
  ExprArena a;
  ExprId x = a.Attr("A1"), y = a.Attr("A2"), z = a.Attr("A3");
  ExprId right_product = a.Product(x, a.Product(y, z));
  ExprId right_sum = a.Sum(x, a.Sum(y, z));
  EXPECT_EQ(a.ToString(right_product), "A1*(A2*A3)");
  EXPECT_EQ(a.ToString(right_sum), "A1+(A2+A3)");
  // Left-nested output is unchanged.
  EXPECT_EQ(a.ToString(a.Product(a.Product(x, y), z)), "A1*A2*A3");
  EXPECT_EQ(a.ToString(a.Sum(a.Sum(x, y), z)), "A1+A2+A3");
  std::vector<Pd> pds = {
      Pd::Leq(right_product, a.Attr("B")),
      Pd::Eq(right_sum, a.Product(right_product, right_sum)),
      Pd::Leq(a.Sum(x, a.Sum(a.Product(y, a.Product(z, x)), y)),
              a.Product(a.Sum(x, y), a.Sum(z, a.Sum(x, y)))),
  };
  for (const Pd& pd : pds) {
    Result<Pd> back = a.ParsePd(a.ToString(pd));
    ASSERT_TRUE(back.ok()) << a.ToString(pd);
    EXPECT_EQ(*back, pd) << a.ToString(pd);
  }
}

TEST(ExprArenaTest, CollectSubexprs) {
  ExprArena a;
  ExprId e = *a.Parse("A*B + A*B");  // hash-consed: A*B appears once
  std::set<ExprId> seen;
  std::vector<ExprId> subs;
  a.CollectSubexprs(e, &seen, &subs);
  // A, B, A*B, (A*B)+(A*B) -> 4 distinct nodes.
  EXPECT_EQ(subs.size(), 4u);
  // Children precede parents.
  EXPECT_EQ(subs.back(), e);
}

TEST(ExprArenaTest, CollectAttrs) {
  ExprArena a;
  ExprId e = *a.Parse("A*(B+A)*C");
  std::set<AttrId> attrs;
  a.CollectAttrs(e, &attrs);
  EXPECT_EQ(attrs.size(), 3u);
}

TEST(ExprArenaTest, ProductOfAttrsMatchesSchemeSemantics) {
  ExprArena a;
  std::vector<std::string> names = {"A", "B", "C"};
  ExprId e = a.ProductOfAttrs(names);
  EXPECT_EQ(e, *a.Parse("A*B*C"));
}

TEST(PdParseTest, Equation) {
  ExprArena a;
  Pd pd = *a.ParsePd("A*B = A*B*C");
  EXPECT_TRUE(pd.is_equation);
  EXPECT_EQ(pd.lhs, *a.Parse("A*B"));
  EXPECT_EQ(pd.rhs, *a.Parse("A*B*C"));
  EXPECT_EQ(a.ToString(pd), "A*B = A*B*C");
}

TEST(PdParseTest, Inequality) {
  ExprArena a;
  Pd pd = *a.ParsePd("C <= A+B");
  EXPECT_FALSE(pd.is_equation);
  EXPECT_EQ(a.ToString(pd), "C <= A+B");
}

TEST(PdParseTest, Errors) {
  ExprArena a;
  EXPECT_FALSE(a.ParsePd("A+B").ok());
  EXPECT_FALSE(a.ParsePd("A = ").ok());
  EXPECT_FALSE(a.ParsePd(" = B").ok());
}

TEST(PdTest, FactoryHelpers) {
  ExprArena a;
  Pd eq = Pd::Eq(a.Attr("A"), a.Attr("B"));
  EXPECT_TRUE(eq.is_equation);
  Pd le = Pd::Leq(a.Attr("A"), a.Attr("B"));
  EXPECT_FALSE(le.is_equation);
  EXPECT_NE(eq, le);
}

}  // namespace
}  // namespace psem
