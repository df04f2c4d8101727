/// @file eval_context.h
/// @brief Memoized evaluation of lattice expressions over partition
/// interpretations, on the dense kernel layer.

// EvalContext is the data-path counterpart of the hash-consed ExprArena:
// the arena makes structurally equal subexpressions share one ExprId, and
// the context makes them share one computed partition. Evaluation runs
// bottom-up over the DAG (children of a node always have smaller ExprIds
// than the node — the arena appends nodes after their operands), on dense
// partitions over one interned PartitionUniverse, with results memoized
// per (ExprId, interpretation epoch):
//
//  * the interpretation's epoch is bumped by every DefineAttribute, so a
//    mutated interpretation can never be served a stale partition — the
//    first evaluation after a mutation flushes the memo;
//  * the memo is LRU-bounded (default 4096 entries); values are
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
// time (PartitionInterpretation wraps its private context in a mutex for
// const-concurrent Eval/Satisfies).

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

/// Counters for the memoized evaluator (AlgStats-style; cumulative until
/// ResetStats).
struct PartitionEvalStats {
  uint64_t memo_hits = 0;        ///< subexpressions served from the memo.
  uint64_t memo_misses = 0;      ///< subexpressions actually computed.
  uint64_t memo_evictions = 0;   ///< LRU evictions.
  uint64_t epoch_flushes = 0;    ///< full flushes due to epoch/binding change.
  uint64_t kernel_ops = 0;       ///< dense Product/Sum kernel invocations.
  uint64_t exprs_evaluated = 0;  ///< root expressions returned to callers.
};

/// Memoized evaluator. Bind-per-call: every entry point takes the arena
/// and interpretation; the context detects binding or epoch changes and
/// flushes itself. Values returned to callers are sparse canonical
/// Partitions (bit-identical to PartitionInterpretation::EvalSparse).
class EvalContext {
 public:
  static constexpr std::size_t kDefaultMemoCapacity = 4096;

  explicit EvalContext(std::size_t memo_capacity = kDefaultMemoCapacity)
      : capacity_(memo_capacity == 0 ? 1 : memo_capacity) {}

  /// Meaning of `e` under `interp` (Section 3.1 structural induction),
  /// memoized. Identical results to PartitionInterpretation::EvalSparse.
  Result<Partition> Eval(const ExprArena& arena,
                         const PartitionInterpretation& interp, ExprId e,
                         const ExecContext& exec = ExecContext::Unbounded());

  /// I |= pd (Definition 3), on dense values without sparsifying.
  Result<bool> Satisfies(const ExprArena& arena,
                         const PartitionInterpretation& interp, const Pd& pd,
                         const ExecContext& exec = ExecContext::Unbounded());

  const PartitionEvalStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PartitionEvalStats{}; }

  /// Drops every memoized value (keeps stats and capacity).
  void Flush();

  std::size_t memo_size() const { return memo_.size(); }
  std::size_t memo_capacity() const { return capacity_; }

 private:
  using DenseRef = std::shared_ptr<const DensePartition>;

  struct MemoEntry {
    DenseRef value;
    std::list<ExprId>::iterator lru;
  };

  /// Re-binds to (arena, interp) if either changed or the epoch moved;
  /// flushing the memo and rebuilding the universe when it did.
  void EnsureBound(const ExprArena& arena,
                   const PartitionInterpretation& interp);

  /// Dense atomic partition of an attribute leaf (cached per AttrId).
  Result<DenseRef> AtomicDense(const ExprArena& arena,
                               const PartitionInterpretation& interp,
                               ExprId leaf);

  /// Memo lookup; touches LRU on hit and counts the hit.
  DenseRef Lookup(ExprId e);

  /// Inserts a computed value (counts the miss; evicts LRU on overflow).
  void Insert(ExprId e, DenseRef value);

  /// The workhorse: evaluates `e` bottom-up with memoization.
  Result<DenseRef> EvalDense(const ExprArena& arena,
                             const PartitionInterpretation& interp, ExprId e,
                             const ExecContext& exec);

  // Binding identity: pointers + epoch. A dangling pointer is never
  // dereferenced — it only ever participates in the equality test, and a
  // reused address with a different epoch still flushes.
  const void* bound_arena_ = nullptr;
  const void* bound_interp_ = nullptr;
  uint64_t bound_epoch_ = 0;

  PartitionUniverse universe_;
  std::unordered_map<AttrId, DenseRef> atomic_dense_;

  std::size_t capacity_;
  std::unordered_map<ExprId, MemoEntry> memo_;
  std::list<ExprId> lru_;  // front = most recent

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
