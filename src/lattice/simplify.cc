#include "lattice/simplify.h"

#include <vector>

namespace psem {

namespace {

// Flattens a maximal same-operator spine into its distinct operands, in
// left-to-right order of first occurrence. (A repeated operand is dropped
// below anyway: exact duplicates keep their first occurrence.)
void FlattenOperands(const ExprArena& arena, ExprId e, ExprKind op,
                     std::vector<ExprId>* out) {
  auto operand = [&](ExprId x) { return arena.KindOf(x) != op; };
  for (ExprId x : arena.PostOrder(e, operand)) {
    if (operand(x)) out->push_back(x);
  }
}

ExprId SimplifyRec(ExprArena* arena, WhitmanMemo* w, ExprId e) {
  if (arena->IsAttr(e)) return e;
  ExprKind op = arena->KindOf(e);

  // Simplify the flattened operand list first. A simplified operand may
  // itself have become a same-operator node (e.g. a factor (A+B)*(A) that
  // collapses to a product) — re-flatten until stable so the dominance
  // pass sees the full operand multiset.
  std::vector<ExprId> operands;
  FlattenOperands(*arena, e, op, &operands);
  std::vector<ExprId> flat;
  while (true) {
    for (ExprId& o : operands) o = SimplifyRec(arena, w, o);
    flat.clear();
    for (ExprId o : operands) FlattenOperands(*arena, o, op, &flat);
    if (flat == operands) break;
    operands = flat;
  }

  // Drop redundant operands. For a product, operand y is redundant if a
  // distinct remaining operand x has x <=_id y (then x*y =_id x). Dually
  // for sums: y redundant if x exists with y <=_id x.
  std::vector<ExprId> kept;
  for (std::size_t i = 0; i < operands.size(); ++i) {
    bool redundant = false;
    for (std::size_t j = 0; j < operands.size() && !redundant; ++j) {
      if (i == j) continue;
      // Exact duplicates: keep only the first occurrence.
      if (operands[i] == operands[j]) {
        redundant = j < i;
        continue;
      }
      bool dominated = op == ExprKind::kProduct
                           ? w->Leq(operands[j], operands[i])
                           : w->Leq(operands[i], operands[j]);
      if (dominated) {
        // Tie-break mutual dominance (equivalence) by index to keep one.
        bool mutual = op == ExprKind::kProduct
                          ? w->Leq(operands[i], operands[j])
                          : w->Leq(operands[j], operands[i]);
        redundant = !mutual || j < i;
      }
    }
    if (!redundant) kept.push_back(operands[i]);
  }
  if (kept.empty()) kept.push_back(operands[0]);

  ExprId rebuilt = kept[0];
  for (std::size_t i = 1; i < kept.size(); ++i) {
    rebuilt = op == ExprKind::kProduct ? arena->Product(rebuilt, kept[i])
                                       : arena->Sum(rebuilt, kept[i]);
  }
  // Final collapse: if the whole node is =_id to one of its operands
  // (absorption across operators, e.g. A*(A+B)), take the operand.
  for (ExprId o : kept) {
    if (w->Eq(rebuilt, o)) return o;
  }
  return rebuilt;
}

}  // namespace

ExprId SimplifyExpr(ExprArena* arena, ExprId e) {
  WhitmanMemo w(arena);
  ExprId out = SimplifyRec(arena, &w, e);
  // The contract promises non-growth; flattening/rebuilding preserves
  // node counts except for removals, so this always holds — assert the
  // cheap half in debug builds via the public invariant instead.
  return arena->TreeSize(out) <= arena->TreeSize(e) ? out : e;
}

Pd SimplifyPd(ExprArena* arena, const Pd& pd) {
  Pd out = pd;
  out.lhs = SimplifyExpr(arena, pd.lhs);
  out.rhs = SimplifyExpr(arena, pd.rhs);
  return out;
}

}  // namespace psem
