#include "partition/eval_context.h"

#include <utility>

namespace psem {

EvalContext::EvalContext(const ExprArena& arena,
                         const PartitionInterpretation& interp)
    : arena_(arena), interp_(interp), epoch_(interp.epoch()) {
  Flush();
}

void EvalContext::Flush() {
  memo_.clear();
  recency_.clear();
  atomic_dense_.clear();
  // Universe: union of every defined attribute's population. Attributes
  // mentioned by an expression but not defined fail at their leaf with
  // kNotFound, matching the sparse reference.
  std::vector<Elem> pop;
  for (const std::string& name : interp_.attribute_names()) {
    const Partition* atomic = interp_.FindAtomic(name);
    pop.insert(pop.end(), atomic->population().begin(),
               atomic->population().end());
  }
  universe_ = PartitionUniverse(std::move(pop));
}

Result<EvalContext::DenseRef> EvalContext::AtomicDense(ExprId leaf) {
  AttrId attr = arena_.AttrOf(leaf);
  auto it = atomic_dense_.find(attr);
  if (it != atomic_dense_.end()) return it->second;
  const std::string& name = arena_.AttrName(attr);
  const Partition* atomic = interp_.FindAtomic(name);
  if (atomic == nullptr) {
    return Status::NotFound("attribute '" + name + "' not interpreted");
  }
  DenseRef dense =
      std::make_shared<const DensePartition>(universe_.Densify(*atomic));
  atomic_dense_.emplace(attr, dense);
  return dense;
}

EvalContext::DenseRef EvalContext::Lookup(ExprId e) {
  auto it = memo_.find(e);
  if (it == memo_.end()) return nullptr;
  recency_.splice(recency_.begin(), recency_, it->second.lru);
  ++stats_.memo_hits;
  return it->second.value;
}

void EvalContext::Insert(ExprId e, DenseRef value) {
  ++stats_.memo_misses;
  while (memo_.size() >= kMemoCapacity) {
    memo_.erase(recency_.back());
    recency_.pop_back();
    ++stats_.memo_evictions;
  }
  recency_.push_front(e);
  memo_.emplace(e, MemoEntry{std::move(value), recency_.begin()});
}

Result<EvalContext::DenseRef> EvalContext::EvalDense(ExprId e,
                                                     const ExecContext& exec) {
  if (interp_.epoch() != epoch_) {
    ++stats_.epoch_flushes;
    epoch_ = interp_.epoch();
    Flush();
  }
  // Children first over the subexpressions that need computing; the walk
  // stops at memo hits, whose values are held here for the call.
  std::unordered_map<ExprId, DenseRef> local;
  const std::vector<ExprId> order = arena_.PostOrder(e, [&](ExprId id) {
    DenseRef hit = Lookup(id);
    if (hit == nullptr) return false;
    local.emplace(id, std::move(hit));
    return true;
  });
  const bool governed = !exec.unbounded();
  uint64_t call_nodes = 0;
  for (ExprId id : order) {
    if (local.contains(id)) continue;  // a memo hit
    if (governed) {
      PSEM_RETURN_IF_ERROR(exec.Check());
      PSEM_RETURN_IF_ERROR(exec.CheckSolverNodes(++call_nodes));
    }
    DenseRef val;
    if (arena_.IsAttr(id)) {
      PSEM_ASSIGN_OR_RETURN(val, AtomicDense(id));
    } else {
      const DensePartition& l = *local.at(arena_.LhsOf(id));
      const DensePartition& r = *local.at(arena_.RhsOf(id));
      auto out = std::make_shared<DensePartition>();
      if (arena_.KindOf(id) == ExprKind::kProduct) {
        ops_.Product(l, r, out.get());
      } else {
        ops_.Sum(l, r, out.get());
      }
      ++stats_.kernel_ops;
      val = std::move(out);
    }
    Insert(id, val);
    local.emplace(id, std::move(val));
  }
  return local.at(e);
}

Result<Partition> EvalContext::Eval(ExprId e, const ExecContext& exec) {
  PSEM_ASSIGN_OR_RETURN(DenseRef val, EvalDense(e, exec));
  ++stats_.exprs_evaluated;
  return universe_.Sparsify(*val);
}

Result<bool> EvalContext::Satisfies(const Pd& pd, const ExecContext& exec) {
  PSEM_ASSIGN_OR_RETURN(DenseRef l, EvalDense(pd.lhs, exec));
  PSEM_ASSIGN_OR_RETURN(DenseRef r, EvalDense(pd.rhs, exec));
  ++stats_.exprs_evaluated;
  if (pd.is_equation) return *l == *r;
  DensePartition prod;
  ops_.Product(*l, *r, &prod);
  ++stats_.kernel_ops;
  return *l == prod;
}

Result<DensePartition> EvalDenseAssignment(
    const ExprArena& arena, ExprId e,
    std::span<const DensePartition* const> attr_value, DenseOps* ops) {
  // Per-call sharing: each distinct subexpression is evaluated once.
  return FoldPostOrder<DensePartition>(
      arena, e,
      [&](ExprId leaf) -> Result<DensePartition> {
        AttrId a = arena.AttrOf(leaf);
        if (a >= attr_value.size() || attr_value[a] == nullptr) {
          return Status::NotFound("attribute '" + arena.AttrName(a) +
                                  "' not assigned");
        }
        return *attr_value[a];
      },
      [&](ExprId node, const DensePartition& l, const DensePartition& r) {
        DensePartition out;
        if (arena.KindOf(node) == ExprKind::kProduct) {
          ops->Product(l, r, &out);
        } else {
          ops->Sum(l, r, &out);
        }
        return out;
      });
}

}  // namespace psem
