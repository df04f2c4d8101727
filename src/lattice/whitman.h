// Deciders for the identity fragment of the theory of lattices: the
// relation <=_id of Section 5.1 (rules ID 1-5), equivalently Whitman's
// condition for free lattices [Whitman 1941]. A PD p = q holds in *every*
// lattice with constants iff p <=_id q and q <=_id p (Lemma 8.2); this is
// the E = {} special case of PD implication, solvable in logarithmic space
// (Theorem 10).
//
// Two implementations are provided, both driven by one case dispatch
// (the rule cases of Section 5.3):
//  * WhitmanMemo      — memoized recursion, O(|p| * |q|) time/space; the
//                       workhorse used by the rest of the library.
//  * WhitmanIterative — explicit-stack evaluation that stores NO results of
//                       intermediate recursive calls (the first observation
//                       in the proof of Theorem 10); auxiliary state is one
//                       small frame per recursion level. Peak depth is
//                       reported so benchmarks can verify the O(tree depth)
//                       space shape that underlies the logspace bound.
//
// Each decider has one code path: the governed LeqChecked. Leq is
// LeqChecked under ExecContext::Unbounded(), whose budgets never trip.
//
// Thread compatibility: WhitmanMemo::Leq mutates the shared memo table, so
// a WhitmanMemo instance must not be shared across threads without external
// synchronization (use one instance per thread). WhitmanIterative::Leq is
// const and keeps all state in locals, so a single const instance may be
// shared freely by concurrent readers (over an arena that is no longer
// being mutated) — it is the decider to share across caller threads.

#ifndef PSEM_LATTICE_WHITMAN_H_
#define PSEM_LATTICE_WHITMAN_H_

#include <cstdint>
#include <unordered_map>

#include "lattice/expr.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace psem {

/// Memoized decider for p <=_id q over one arena.
class WhitmanMemo {
 public:
  explicit WhitmanMemo(const ExprArena* arena) : arena_(arena) {}

  /// True iff p <= q holds in every lattice with constants (rules ID 1-5).
  bool Leq(ExprId p, ExprId q);

  /// True iff p = q is a lattice identity (p <=_id q and q <=_id p,
  /// Lemma 8.2a).
  bool Eq(ExprId p, ExprId q) { return Leq(p, q) && Leq(q, p); }

  /// True iff the PD holds in every partition interpretation (Theorem 1 +
  /// Lemma 8.2).
  bool IsIdentity(const Pd& pd) {
    return pd.is_equation ? Eq(pd.lhs, pd.rhs) : Leq(pd.lhs, pd.rhs);
  }

  /// The decider. Observes ctx's recursion-depth budget, deadline, and
  /// cancel token (polled every ~1024 calls). On a trip it
  /// returns the ctx Status; the memo keeps only the sub-verdicts that
  /// completed (all sound), so the decider stays fully usable.
  Result<bool> LeqChecked(ExprId p, ExprId q,
                          const ExecContext& ctx = ExecContext::Unbounded());

  Result<bool> EqChecked(ExprId p, ExprId q,
                         const ExecContext& ctx = ExecContext::Unbounded());

  Result<bool> IsIdentityChecked(
      const Pd& pd, const ExecContext& ctx = ExecContext::Unbounded()) {
    return pd.is_equation ? EqChecked(pd.lhs, pd.rhs, ctx)
                          : LeqChecked(pd.lhs, pd.rhs, ctx);
  }

  /// Number of memo entries (distinct subproblems touched).
  std::size_t memo_size() const { return memo_.size(); }

 private:
  Status LeqImpl(ExprId p, ExprId q, uint64_t depth, const ExecContext& ctx,
                 uint64_t* calls, bool* out);

  const ExprArena* arena_;
  std::unordered_map<uint64_t, bool> memo_;
};

/// Statistics from one WhitmanIterative evaluation.
struct WhitmanIterativeStats {
  std::size_t peak_stack_depth = 0;  ///< max live frames (O(tree depth)).
  std::size_t total_calls = 0;       ///< frames pushed (time, no memo).
};

/// Result-storage-free decider: evaluates the ID-rule recursion with an
/// explicit stack of (p, q, next-member) frames and no memo table,
/// demonstrating the "results of intermediate recursive calls need not be
/// stored" observation of Theorem 10's proof.
class WhitmanIterative {
 public:
  explicit WhitmanIterative(const ExprArena* arena) : arena_(arena) {}

  bool Leq(ExprId p, ExprId q, WhitmanIterativeStats* stats = nullptr) const;

  bool Eq(ExprId p, ExprId q, WhitmanIterativeStats* stats = nullptr) const {
    return Leq(p, q, stats) && Leq(q, p, stats);
  }

  /// The decider. The live frame count is checked against ctx's
  /// depth budget on every push, and the deadline/cancel token every
  /// ~1024 frames. All state is local, so an early stop loses nothing.
  Result<bool> LeqChecked(ExprId p, ExprId q,
                          const ExecContext& ctx = ExecContext::Unbounded(),
                          WhitmanIterativeStats* stats = nullptr) const;

  Result<bool> EqChecked(ExprId p, ExprId q,
                         const ExecContext& ctx = ExecContext::Unbounded(),
                         WhitmanIterativeStats* stats = nullptr) const;

 private:
  const ExprArena* arena_;
};

}  // namespace psem

#endif  // PSEM_LATTICE_WHITMAN_H_
