#include "partition/eval_context.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>

namespace psem {

void EvalContext::Flush() {
  memo_.clear();
  recency_.clear();
  atomic_dense_.clear();
}

void EvalContext::EnsureBound(const ExprArena& arena,
                              const PartitionInterpretation& interp) {
  const void* a = static_cast<const void*>(&arena);
  const void* i = static_cast<const void*>(&interp);
  if (a == bound_arena_ && i == bound_interp_ &&
      interp.epoch() == bound_epoch_) {
    return;
  }
  if (bound_arena_ != nullptr) ++stats_.epoch_flushes;
  Flush();
  bound_arena_ = a;
  bound_interp_ = i;
  bound_epoch_ = interp.epoch();
  // Universe: union of every defined attribute's population. Attributes
  // mentioned by an expression but not defined fail at their leaf with
  // kNotFound, matching the sparse reference.
  std::vector<Elem> pop;
  for (const std::string& name : interp.attribute_names()) {
    const Partition* atomic = interp.FindAtomic(name);
    pop.insert(pop.end(), atomic->population().begin(),
               atomic->population().end());
  }
  universe_ = PartitionUniverse(std::move(pop));
}

Result<EvalContext::DenseRef> EvalContext::AtomicDense(
    const ExprArena& arena, const PartitionInterpretation& interp,
    ExprId leaf) {
  AttrId attr = arena.AttrOf(leaf);
  auto it = atomic_dense_.find(attr);
  if (it != atomic_dense_.end()) return it->second;
  const std::string& name = arena.AttrName(attr);
  const Partition* atomic = interp.FindAtomic(name);
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
  auto it = memo_.find(e);
  if (it != memo_.end()) {  // possible after a concurrent-epoch re-entry
    recency_.splice(recency_.begin(), recency_, it->second.lru);
    it->second.value = std::move(value);
    return;
  }
  while (memo_.size() >= capacity_) {
    memo_.erase(recency_.back());
    recency_.pop_back();
    ++stats_.memo_evictions;
  }
  recency_.push_front(e);
  memo_.emplace(e, MemoEntry{std::move(value), recency_.begin()});
}

Result<EvalContext::DenseRef> EvalContext::EvalDense(
    const ExprArena& arena, const PartitionInterpretation& interp, ExprId e,
    const ExecContext& exec) {
  EnsureBound(arena, interp);
  // Collect the subexpressions that actually need computing, stopping the
  // descent at memo hits.
  std::vector<ExprId> needed;
  std::vector<ExprId> stack{e};
  std::unordered_map<ExprId, DenseRef> local;
  std::unordered_set<ExprId> visited;
  while (!stack.empty()) {
    ExprId id = stack.back();
    stack.pop_back();
    if (!visited.insert(id).second) continue;
    if (DenseRef hit = Lookup(id)) {
      local.emplace(id, std::move(hit));
      continue;
    }
    needed.push_back(id);
    if (!arena.IsAttr(id)) {
      stack.push_back(arena.LhsOf(id));
      stack.push_back(arena.RhsOf(id));
    }
  }
  // Hash-consing appends operands before operators, so ascending ExprId
  // order is a topological order of the DAG.
  std::sort(needed.begin(), needed.end());
  const bool governed = !exec.unbounded();
  uint64_t call_nodes = 0;
  for (ExprId id : needed) {
    if (governed) {
      PSEM_RETURN_IF_ERROR(exec.Check());
      PSEM_RETURN_IF_ERROR(exec.CheckSolverNodes(++call_nodes));
    }
    DenseRef val;
    if (arena.IsAttr(id)) {
      PSEM_ASSIGN_OR_RETURN(val, AtomicDense(arena, interp, id));
    } else {
      const DensePartition& l = *local.at(arena.LhsOf(id));
      const DensePartition& r = *local.at(arena.RhsOf(id));
      auto out = std::make_shared<DensePartition>();
      if (arena.KindOf(id) == ExprKind::kProduct) {
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

Result<Partition> EvalContext::Eval(const ExprArena& arena,
                                    const PartitionInterpretation& interp,
                                    ExprId e, const ExecContext& exec) {
  PSEM_ASSIGN_OR_RETURN(DenseRef val, EvalDense(arena, interp, e, exec));
  ++stats_.exprs_evaluated;
  return universe_.Sparsify(*val);
}

Result<bool> EvalContext::Satisfies(const ExprArena& arena,
                                    const PartitionInterpretation& interp,
                                    const Pd& pd, const ExecContext& exec) {
  PSEM_ASSIGN_OR_RETURN(DenseRef l, EvalDense(arena, interp, pd.lhs, exec));
  PSEM_ASSIGN_OR_RETURN(DenseRef r, EvalDense(arena, interp, pd.rhs, exec));
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
  // Per-call sharing: evaluate each distinct subexpression once, in
  // ascending (topological) ExprId order.
  std::set<ExprId> seen;
  std::vector<ExprId> nodes;
  arena.CollectSubexprs(e, &seen, &nodes);
  std::sort(nodes.begin(), nodes.end());
  std::unordered_map<ExprId, DensePartition> vals;
  vals.reserve(nodes.size());
  for (ExprId id : nodes) {
    if (arena.IsAttr(id)) {
      AttrId a = arena.AttrOf(id);
      if (a >= attr_value.size() || attr_value[a] == nullptr) {
        return Status::NotFound("attribute '" + arena.AttrName(a) +
                                "' not assigned");
      }
      vals.emplace(id, *attr_value[a]);
      continue;
    }
    const DensePartition& l = vals.at(arena.LhsOf(id));
    const DensePartition& r = vals.at(arena.RhsOf(id));
    DensePartition out;
    if (arena.KindOf(id) == ExprKind::kProduct) {
      ops->Product(l, r, &out);
    } else {
      ops->Sum(l, r, &out);
    }
    vals.emplace(id, std::move(out));
  }
  return std::move(vals.at(e));
}

}  // namespace psem
