// Tests for the partition-expression arena: hash-consing, parsing,
// printing, subexpression enumeration, PD parsing.

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

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
  EXPECT_EQ(std::set<ExprId>({a.Attr("A"), ab1, ba, s}).size(), 4u);

  // Across many growths of the table, a new node gets the next dense id,
  // and re-interning returns the same id and adds no node.
  const ExprId x = a.Attr("A"), y = a.Attr("B");
  std::vector<ExprId> built;
  ExprId acc = ba;
  for (int i = 0; i < 50000; ++i) {
    const ExprId next = static_cast<ExprId>(a.size());
    acc = a.Product(acc, y);
    ASSERT_EQ(acc, next);
    built.push_back(acc);
    built.push_back(a.Sum(acc, x));
    ASSERT_EQ(built.back(), next + 1);
  }
  const std::size_t size = a.size();
  EXPECT_EQ(size, 5u + 100000u);
  acc = ba;
  for (int i = 0; i < 50000; ++i) {
    acc = a.Product(acc, y);
    ASSERT_EQ(acc, built[2 * i]);
    ASSERT_EQ(a.Sum(acc, x), built[2 * i + 1]);
  }
  EXPECT_EQ(a.Attr("A"), x);
  EXPECT_EQ(a.Product(x, y), ab1);
  EXPECT_EQ(a.Sum(x, y), s);
  EXPECT_EQ(a.Product(y, x), ba);
  EXPECT_EQ(a.size(), size);
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

TEST(ExprArenaTest, PostOrderYieldsDistinctNodesChildrenFirst) {
  ExprArena a;
  ExprId e = *a.Parse("A*B + A*B");  // hash-consed: A*B appears once
  const ExprId attr_a = a.Attr("A"), attr_b = a.Attr("B");
  const ExprId ab = a.Product(attr_a, attr_b);
  // A, B, A*B, (A*B)+(A*B): 4 distinct nodes, lhs before rhs before node.
  EXPECT_EQ(a.PostOrder(e), (std::vector<ExprId>{attr_a, attr_b, ab, e}));
  // A later root yields only what the earlier roots did not.
  ExprId f = *a.Parse("C*(A*B)");
  const ExprId attr_c = a.Attr("C");
  EXPECT_EQ(a.PostOrder(std::array{e, f}),
            (std::vector<ExprId>{attr_a, attr_b, ab, e, attr_c, f}));
  // A node `stop` accepts is yielded as a leaf: A and B are never reached.
  EXPECT_EQ(a.PostOrder(f, [&](ExprId x) { return x == ab; }),
            (std::vector<ExprId>{attr_c, ab, f}));
}

// A fold stops at the first failing leaf in walk order (lhs subtree
// first), whatever the leaves' ids; a shared node is folded once.
TEST(ExprArenaTest, FoldPostOrderReturnsTheFirstFailingLeafInWalkOrder) {
  ExprArena a;
  const ExprId attr_a = a.Attr("A");  // A's id is below B's
  const ExprId e = *a.Parse("(B*C)*(A+B*C)");
  auto leaf = [&](ExprId x) -> Result<int> {
    if (x == attr_a || a.AttrName(a.AttrOf(x)) == "B") {
      return Status::InvalidArgument(a.AttrName(a.AttrOf(x)));
    }
    return 1;
  };
  auto count = [](ExprId, int l, int r) { return l + r + 1; };
  Result<int> failed = FoldPostOrder<int>(a, e, leaf, count);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message(), "B");
  Result<int> size = FoldPostOrder<int>(
      a, e, [](ExprId) -> Result<int> { return 1; }, count);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, static_cast<int>(a.TreeSize(e)));
}

TEST(ExprArenaTest, ComplexityAndTreeSizeSaturateAndNeverShrink) {
  // x_k is A squared k times: complexity 2^k - 1. Summed in 32 bits,
  // x_31 * x_32 would get (2^31-1) + (2^32-1) + 1 mod 2^32 = 2^31 - 1,
  // less than its own child.
  ExprArena a;
  std::vector<ExprId> x{a.Attr("A")};
  for (int k = 1; k <= 40; ++k) x.push_back(a.Product(x.back(), x.back()));
  EXPECT_EQ(a.Complexity(x[31]), (uint32_t{1} << 31) - 1);
  EXPECT_EQ(a.TreeSize(x[30]), (uint32_t{1} << 31) - 1);
  EXPECT_EQ(a.TreeSize(x[31]), UINT32_MAX);
  EXPECT_EQ(a.Complexity(x[32]), UINT32_MAX);
  std::vector<ExprId> parents(x.begin() + 1, x.end());
  parents.push_back(a.Product(x[31], x[32]));
  parents.push_back(a.Sum(x[32], x[40]));
  for (ExprId p : parents) {
    for (ExprId child : {a.LhsOf(p), a.RhsOf(p)}) {
      EXPECT_GE(a.Complexity(p), a.Complexity(child)) << a.Complexity(p);
      EXPECT_GE(a.TreeSize(p), a.TreeSize(child)) << a.TreeSize(p);
    }
  }
  EXPECT_EQ(a.Complexity(parents[40]), UINT32_MAX);
  EXPECT_EQ(a.TreeSize(parents[40]), UINT32_MAX);
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
