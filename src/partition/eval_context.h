/// @file eval_context.h
/// @brief Memoized evaluation of lattice expressions over partition
/// interpretations, on the dense kernel layer.

// EvalContext is the data-path counterpart of the hash-consed ExprArena:
// the arena makes structurally equal subexpressions share one ExprId, and
// the context makes them share one computed partition. A context is bound
// to one arena and one interpretation when it is constructed; both must
// outlive it. Evaluation runs bottom-up over the DAG (children of a node
// always have smaller ExprIds than the node — the arena appends nodes
// after their operands), on dense partitions over one interned
// PartitionUniverse, with results memoized per ExprId:
//
//  * the interpretation's epoch is bumped by every DefineAttribute, so a
//    mutated interpretation can never be served a stale partition — the
//    first evaluation after a mutation flushes the memo;
//  * the memo is LRU-bounded (kMemoCapacity entries); values are
//    shared_ptrs, so an eviction never invalidates a value an in-flight
//    evaluation still holds;
//  * hit/miss/eviction/flush counters are exposed AlgStats-style through
//    stats().
//
// Evaluation is serial: one DenseOps scratch serves every kernel call.
// All entry points honor an ExecContext: on deadline, cancel, or
// solver-node budget exhaustion they return the non-OK Status, keep the
// partial stats, and leave the context reusable (subexpressions completed
// before the trip stay memoized; nothing half-written is published).
//
// Thread-compatibility: an EvalContext may be driven by one thread at a
// time. PartitionInterpretation::Eval/Satisfies build a local context per
// call, so a const interpretation is shareable across threads.

#ifndef PSEM_PARTITION_EVAL_CONTEXT_H_
#define PSEM_PARTITION_EVAL_CONTEXT_H_

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "lattice/expr.h"
#include "partition/dense.h"
#include "partition/interpretation.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace psem {

/// Counters for the memoized evaluator (AlgStats-style; cumulative over
/// the context's life).
struct PartitionEvalStats {
  uint64_t memo_hits = 0;        ///< subexpressions served from the memo.
  uint64_t memo_misses = 0;      ///< subexpressions actually computed.
  uint64_t memo_evictions = 0;   ///< LRU evictions.
  uint64_t epoch_flushes = 0;    ///< full flushes due to an epoch change.
  uint64_t kernel_ops = 0;       ///< dense Product/Sum kernel invocations.
  uint64_t exprs_evaluated = 0;  ///< root expressions returned to callers.
};

/// Memoized evaluator bound to one (arena, interpretation) pair. Values
/// returned to callers are sparse canonical Partitions (bit-identical to
/// PartitionInterpretation::EvalSparse).
class EvalContext {
 public:
  static constexpr std::size_t kMemoCapacity = 4096;

  /// Binds to `arena` and `interp`, which must outlive the context.
  EvalContext(const ExprArena& arena, const PartitionInterpretation& interp);
  // Not copyable: memo_ holds iterators into this object's own recency_
  // list, which a copy would share with (and outlive) its source.
  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// Meaning of `e` under the bound interpretation (Section 3.1
  /// structural induction), memoized. Identical results to
  /// PartitionInterpretation::EvalSparse.
  Result<Partition> Eval(ExprId e,
                         const ExecContext& exec = ExecContext::Unbounded());

  /// I |= pd (Definition 3), on dense values without sparsifying.
  Result<bool> Satisfies(const Pd& pd,
                         const ExecContext& exec = ExecContext::Unbounded());

  const PartitionEvalStats& stats() const { return stats_; }
  std::size_t memo_size() const { return memo_.size(); }

 private:
  using DenseRef = std::shared_ptr<const DensePartition>;

  struct MemoEntry {
    DenseRef value;
    std::list<ExprId>::iterator lru;
  };

  /// Drops every memoized value and rebuilds the universe from the
  /// interpretation's current attributes.
  void Flush();

  /// Dense atomic partition of an attribute leaf (cached per AttrId).
  Result<DenseRef> AtomicDense(ExprId leaf);

  /// Memo lookup; touches LRU on hit and counts the hit.
  DenseRef Lookup(ExprId e);

  /// Inserts a computed value (counts the miss; evicts LRU on overflow).
  void Insert(ExprId e, DenseRef value);

  /// The workhorse: evaluates `e` bottom-up with memoization.
  Result<DenseRef> EvalDense(ExprId e, const ExecContext& exec);

  const ExprArena& arena_;
  const PartitionInterpretation& interp_;
  uint64_t epoch_;  // interp_.epoch() the memo and universe reflect

  PartitionUniverse universe_;
  std::unordered_map<AttrId, DenseRef> atomic_dense_;

  std::unordered_map<ExprId, MemoEntry> memo_;
  std::list<ExprId> recency_;  // front = most recent

  DenseOps ops_;  // kernel scratch
  PartitionEvalStats stats_;
};

/// Evaluates `e` over an explicit dense assignment attr id -> partition
/// (all over one universe), with per-call subexpression sharing but no
/// cross-call memo — the model_finder DFS shape, where the assignment
/// changes at every step. `attr_value[a]` may be nullptr for unassigned
/// attributes; evaluating a leaf for one returns kNotFound.
Result<DensePartition> EvalDenseAssignment(
    const ExprArena& arena, ExprId e,
    std::span<const DensePartition* const> attr_value, DenseOps* ops);

}  // namespace psem

#endif  // PSEM_PARTITION_EVAL_CONTEXT_H_
