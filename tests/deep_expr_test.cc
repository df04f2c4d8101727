// Expression height is never native stack depth. Every whole-tree entry
// point gets a 10^6-high left chain, once parsed from a parenthesis-free
// product and once built through the API with alternating operators, and
// must return a verdict or a clean Status. A shared DAG whose tree is
// exponentially larger than its node count must be walked once per
// distinct node.

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fpd.h"
#include "core/implication.h"
#include "core/proof.h"
#include "core/snapshot.h"
#include "lattice/congruence.h"
#include "lattice/expr.h"
#include "lattice/finite_lattice.h"
#include "lattice/whitman.h"
#include "partition/eval_context.h"
#include "partition/interpretation.h"
#include "partition/partition.h"
#include "relational/universe.h"
#include "util/exec_context.h"

namespace psem {
namespace {

constexpr std::size_t kHeight = 1'000'000;  // operator nodes on the spine
constexpr std::size_t kAttrs = 50;          // link i uses A(i mod 50)
constexpr std::size_t kPopulation = 4;

// Interns A0..A49 first, so attribute i has AttrId i.
void InternAttrs(ExprArena* arena) {
  for (std::size_t i = 0; i < kAttrs; ++i) {
    arena->Attr("A" + std::to_string(i));
  }
}

// A0..A49 over {0..3}: attribute i splits the population by the bits of i.
PartitionInterpretation Interpretation() {
  PartitionInterpretation interp;
  std::vector<Elem> pop(kPopulation);
  for (std::size_t j = 0; j < kPopulation; ++j) pop[j] = static_cast<Elem>(j);
  for (std::size_t i = 0; i < kAttrs; ++i) {
    std::vector<uint32_t> labels(kPopulation);
    for (std::size_t j = 0; j < kPopulation; ++j) labels[j] = (i >> j) & 1;
    Partition p = Partition::FromLabels(pop, labels);
    std::unordered_map<std::string, uint32_t> naming;
    for (uint32_t b = 0; b < p.num_blocks(); ++b) {
      naming["a" + std::to_string(i) + "_" + std::to_string(b)] = b;
    }
    EXPECT_TRUE(
        interp.DefineAttribute("A" + std::to_string(i), std::move(p), naming)
            .ok());
  }
  return interp;
}

// Runs every whole-tree entry point on `pd`, whose lhs is the left chain
// whose link i (1-based) applies ops[i-1] to the chain so far and A(i mod
// 50), and whose rhs is A0. `reparses` says whether ToString's text stays
// within the parser's parenthesis cap.
void CheckEveryEntryPoint(ExprArena* arena, const Pd& pd,
                          const std::vector<ExprKind>& ops, bool reparses) {
  ASSERT_EQ(arena->Complexity(pd.lhs), kHeight);

  // References, folded link by link.
  const PartitionInterpretation interp = Interpretation();
  const FiniteLattice m3 = FiniteLattice::DiamondM3();
  std::vector<LatticeElem> assignment(kAttrs);
  std::vector<Partition> atomic(kAttrs);
  for (std::size_t i = 0; i < kAttrs; ++i) {
    assignment[i] = static_cast<LatticeElem>(i % m3.size());
    atomic[i] = *interp.AtomicPartition("A" + std::to_string(i));
  }
  Partition want = atomic[0];
  LatticeElem want_elem = assignment[0];
  for (std::size_t i = 1; i <= kHeight; ++i) {
    const std::size_t a = i % kAttrs;
    if (ops[i - 1] == ExprKind::kProduct) {
      want = Partition::Product(want, atomic[a]);
      want_elem = m3.Meet(want_elem, assignment[a]);
    } else {
      want = Partition::Sum(want, atomic[a]);
      want_elem = m3.Join(want_elem, assignment[a]);
    }
  }

  {
    SCOPED_TRACE("ToString");
    const std::string text = arena->ToString(pd);
    Result<Pd> back = arena->ParsePd(text);
    if (reparses) {
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(*back, pd);
    } else {
      ASSERT_FALSE(back.ok());
      EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
    }
  }
  {
    SCOPED_TRACE("CollectAttrs and PostOrder");
    std::set<AttrId> attrs;
    arena->CollectAttrs(pd.lhs, &attrs);
    EXPECT_EQ(attrs.size(), kAttrs);
    std::vector<ExprId> order = arena->PostOrder(std::array{pd.lhs, pd.rhs});
    EXPECT_EQ(order.size(), kHeight + kAttrs);
    EXPECT_EQ(order.back(), pd.lhs);
  }
  {
    SCOPED_TRACE("DualPd");
    EXPECT_EQ(DualPd(arena, DualPd(arena, pd)), pd);
  }
  {
    SCOPED_TRACE("PdImplicationEngine");
    ExecContext small;
    small.WithMaxVertices(64);
    PdImplicationEngine empty(arena, {});
    Result<bool> rejected = empty.Implies(pd, small);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(empty.vertices().empty());
    // Never closed: its n x n matrix would not fit.
    PdImplicationEngine engine(arena, {pd});
    EXPECT_EQ(engine.vertices().size(), kHeight + kAttrs);
    rejected = engine.Implies(pd, small);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  }
  {
    SCOPED_TRACE("Whitman deciders");
    WhitmanMemo memo(arena);
    const WhitmanIterative iterative(arena);
    const bool down = memo.Leq(pd.lhs, pd.rhs);
    const bool up = memo.Leq(pd.rhs, pd.lhs);
    EXPECT_EQ(iterative.Leq(pd.lhs, pd.rhs), down);
    EXPECT_EQ(iterative.Leq(pd.rhs, pd.lhs), up);
    WhitmanMemo fresh(arena);
    Result<bool> checked = fresh.LeqChecked(pd.lhs, pd.rhs);
    ASSERT_TRUE(checked.ok());
    EXPECT_EQ(*checked, down);
    // The depth budget counts live frames, and the spine needs them all.
    ExecContext shallow;
    shallow.WithMaxDepth(1000);
    WhitmanMemo capped(arena);
    Result<bool> tripped = capped.LeqChecked(pd.lhs, pd.rhs, shallow);
    ASSERT_FALSE(tripped.ok());
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
    tripped = iterative.LeqChecked(pd.lhs, pd.rhs, shallow);
    ASSERT_FALSE(tripped.ok());
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  }
  {
    SCOPED_TRACE("ProvenanceEngine and CongruenceClosure");
    ProvenanceEngine provenance(arena, {pd});
    CongruenceClosure congruence(arena);
    congruence.AddEquation(pd.lhs, pd.rhs);
    EXPECT_TRUE(congruence.Equivalent(pd.lhs, pd.rhs));
  }
  {
    SCOPED_TRACE("evaluators");
    Result<LatticeElem> elem = m3.Eval(*arena, pd.lhs, assignment);
    ASSERT_TRUE(elem.ok());
    EXPECT_EQ(*elem, want_elem);
    Result<Partition> sparse = interp.EvalSparse(*arena, pd.lhs);
    ASSERT_TRUE(sparse.ok());
    EXPECT_EQ(*sparse, want);
    EvalContext ctx(*arena, interp);
    Result<Partition> dense = ctx.Eval(pd.lhs);
    ASSERT_TRUE(dense.ok());
    EXPECT_EQ(*dense, want);
  }
  {
    SCOPED_TRACE("DurablePdEngine::AddPd");
    Result<DurablePdEngine> durable =
        DurablePdEngine::Recover(arena, {}, DurabilityOptions{});
    ASSERT_TRUE(durable.ok());
    ExecContext small;
    small.WithMaxVertices(64);
    Status st = durable->AddPd(pd, small);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(durable->AddPd(pd, ExecContext::Unbounded()).ok());
    EXPECT_EQ(durable->engine().constraints().size(), 1u);
  }
}

TEST(DeepExprTest, ParenthesisFreeProductOfAMillionFactors) {
  ExprArena arena;
  InternAttrs(&arena);
  std::string text = "A0";
  for (std::size_t i = 1; i <= kHeight; ++i) {
    text += "*A" + std::to_string(i % kAttrs);
  }
  text += " <= A0";
  Result<Pd> pd = arena.ParsePd(text);
  ASSERT_TRUE(pd.ok()) << pd.status().ToString();
  CheckEveryEntryPoint(&arena, *pd,
                       std::vector<ExprKind>(kHeight, ExprKind::kProduct),
                       /*reparses=*/true);
}

TEST(DeepExprTest, ApiBuiltLeftChainOfTheSameHeight) {
  ExprArena arena;
  InternAttrs(&arena);
  // Alternating * and +: every product link's lhs is a sum, so printing
  // nests ~5 * 10^5 parentheses, beyond the parser's cap.
  std::vector<ExprKind> ops(kHeight);
  ExprId chain = arena.AttrExpr(0);
  for (std::size_t i = 1; i <= kHeight; ++i) {
    ops[i - 1] = i % 2 == 1 ? ExprKind::kProduct : ExprKind::kSum;
    const ExprId attr = arena.AttrExpr(static_cast<AttrId>(i % kAttrs));
    chain = ops[i - 1] == ExprKind::kProduct ? arena.Product(chain, attr)
                                             : arena.Sum(chain, attr);
  }
  CheckEveryEntryPoint(&arena, Pd::Leq(chain, arena.AttrExpr(0)), ops,
                       /*reparses=*/false);
}

TEST(DeepExprTest, SharedDagIsWalkedOncePerDistinctNode) {
  // A node squared 40 times: 41 distinct nodes, 2^41 - 1 tree nodes. A
  // tree-order walk would not finish.
  ExprArena arena;
  const ExprId a = arena.Attr("A0");
  ExprId mixed = a;
  ExprId product = a;
  for (int k = 0; k < 40; ++k) {
    mixed = k % 2 == 0 ? arena.Product(mixed, mixed) : arena.Sum(mixed, mixed);
    product = arena.Product(product, product);
  }
  EXPECT_EQ(arena.PostOrder(mixed).size(), 41u);

  std::set<AttrId> attrs;
  arena.CollectAttrs(mixed, &attrs);
  EXPECT_EQ(attrs, (std::set<AttrId>{arena.AttrOf(a)}));

  const std::size_t before = arena.size();
  const ExprId dual = DualExpr(&arena, mixed);
  EXPECT_EQ(arena.size(), before + 40);
  EXPECT_EQ(DualExpr(&arena, dual), mixed);

  // Idempotence: x*x = x+x = x in every lattice.
  const PartitionInterpretation interp = Interpretation();
  const Partition atomic = *interp.AtomicPartition("A0");
  Result<Partition> sparse = interp.EvalSparse(arena, mixed);
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(*sparse, atomic);
  EvalContext ctx(arena, interp);
  Result<Partition> dense = ctx.Eval(mixed);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(*dense, atomic);
  Result<LatticeElem> elem =
      FiniteLattice::DiamondM3().Eval(arena, mixed, std::vector<LatticeElem>{2});
  ASSERT_TRUE(elem.ok());
  EXPECT_EQ(*elem, 2u);

  // A pure product DAG is an FPD's attribute set, read once per node.
  Universe universe;
  std::optional<Fd> fd = FpdToFd(arena, &universe, Pd::Leq(product, a));
  ASSERT_TRUE(fd.has_value());
  EXPECT_EQ(universe.size(), 1u);
}

}  // namespace
}  // namespace psem
