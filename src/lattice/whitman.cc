#include "lattice/whitman.h"

#include <cassert>
#include <vector>

namespace psem {

namespace {

inline uint64_t PairKey(ExprId p, ExprId q) {
  return (static_cast<uint64_t>(p) << 32) | q;
}

// Deadline/cancel poll period for the governed deciders, in calls/frames.
constexpr uint64_t kWhitmanCheckStride = 1024;

// One member of the C(p, q) call list: a recursive subproblem.
struct Member {
  ExprId p;
  ExprId q;
};

// The call list of (p, q) plus the connective combining its members:
// AND lists fail fast on false, OR lists succeed fast on true.
struct CallList {
  Member members[4];
  uint8_t count = 0;
  bool is_and = true;
  bool leaf_value = false;  // used when count == 0 (case 1)
};

// Rule dispatch (Section 5.3, cases 1-7), shared by both deciders. The
// recursion is well-founded: every member strictly decreases |p| + |q|.
CallList MembersOf(const ExprArena& a, ExprId p, ExprId q) {
  CallList c;
  if (a.KindOf(p) == ExprKind::kSum) {
    // Case 7: p1 + p2 <= q iff p1 <= q and p2 <= q.
    c.is_and = true;
    c.members[c.count++] = {a.LhsOf(p), q};
    c.members[c.count++] = {a.RhsOf(p), q};
    return c;
  }
  if (a.KindOf(q) == ExprKind::kProduct &&
      a.KindOf(p) != ExprKind::kProduct) {
    // Case 2 (p an attribute): p <= q1 * q2 iff p <= q1 and p <= q2.
    c.is_and = true;
    c.members[c.count++] = {p, a.LhsOf(q)};
    c.members[c.count++] = {p, a.RhsOf(q)};
    return c;
  }
  if (a.KindOf(p) == ExprKind::kAttr) {
    switch (a.KindOf(q)) {
      case ExprKind::kAttr:
        // Case 1: A <= A' iff identical (ids are hash-consed).
        c.leaf_value = (p == q);
        return c;
      case ExprKind::kSum:
        // Case 3: A <= q1 + q2 iff A <= q1 or A <= q2.
        c.is_and = false;
        c.members[c.count++] = {p, a.LhsOf(q)};
        c.members[c.count++] = {p, a.RhsOf(q)};
        return c;
      case ExprKind::kProduct:
        c.is_and = true;
        c.members[c.count++] = {p, a.LhsOf(q)};
        c.members[c.count++] = {p, a.RhsOf(q)};
        return c;
    }
  }
  // p is a product.
  ExprId p1 = a.LhsOf(p), p2 = a.RhsOf(p);
  switch (a.KindOf(q)) {
    case ExprKind::kAttr:
      // Case 4: p1 * p2 <= A' iff p1 <= A' or p2 <= A'.
      c.is_and = false;
      c.members[c.count++] = {p1, q};
      c.members[c.count++] = {p2, q};
      return c;
    case ExprKind::kProduct:
      // Case 5: p <= q1 * q2 iff p <= q1 and p <= q2.
      c.is_and = true;
      c.members[c.count++] = {p, a.LhsOf(q)};
      c.members[c.count++] = {p, a.RhsOf(q)};
      return c;
    case ExprKind::kSum:
      // Case 6 (Whitman's condition): p1*p2 <= q1+q2 iff
      //   p1 <= q or p2 <= q or p <= q1 or p <= q2.
      c.is_and = false;
      c.members[c.count++] = {p1, q};
      c.members[c.count++] = {p2, q};
      c.members[c.count++] = {p, a.LhsOf(q)};
      c.members[c.count++] = {p, a.RhsOf(q)};
      return c;
  }
  return c;  // unreachable
}

struct Frame {
  ExprId p;
  ExprId q;
  uint8_t next_member;  // index of the member to evaluate next
};

}  // namespace

// Memoized recursion over the CallList dispatch. Recursion depth is the
// |p|+|q| descent, so CheckDepth bounds the native stack; the memo only
// ever receives fully decided subproblems, so an aborted query leaves it
// sound and the decider reusable.
Status WhitmanMemo::LeqImpl(ExprId p, ExprId q, uint64_t depth,
                            const ExecContext& ctx, uint64_t* calls,
                            bool* out) {
  uint64_t key = PairKey(p, q);
  if (auto it = memo_.find(key); it != memo_.end()) {
    *out = it->second;
    return Status::OK();
  }
  PSEM_RETURN_IF_ERROR(ctx.CheckDepth(depth));
  if ((++*calls % kWhitmanCheckStride) == 0) PSEM_RETURN_IF_ERROR(ctx.Check());

  CallList c = MembersOf(*arena_, p, q);
  bool res;
  if (c.count == 0) {
    res = c.leaf_value;
  } else {
    res = c.is_and;  // identity element of the connective
    for (uint8_t i = 0; i < c.count; ++i) {
      bool sub = false;
      PSEM_RETURN_IF_ERROR(
          LeqImpl(c.members[i].p, c.members[i].q, depth + 1, ctx, calls, &sub));
      res = sub;
      if (c.is_and ? !sub : sub) break;  // connective decided
    }
  }
  memo_.emplace(key, res);
  *out = res;
  return Status::OK();
}

bool WhitmanMemo::Leq(ExprId p, ExprId q) { return LeqChecked(p, q).value(); }

Result<bool> WhitmanMemo::LeqChecked(ExprId p, ExprId q,
                                     const ExecContext& ctx) {
  uint64_t calls = 0;
  bool out = false;
  PSEM_RETURN_IF_ERROR(LeqImpl(p, q, 1, ctx, &calls, &out));
  return out;
}

Result<bool> WhitmanMemo::EqChecked(ExprId p, ExprId q,
                                    const ExecContext& ctx) {
  PSEM_ASSIGN_OR_RETURN(bool fwd, LeqChecked(p, q, ctx));
  if (!fwd) return false;
  return LeqChecked(q, p, ctx);
}

bool WhitmanIterative::Leq(ExprId p, ExprId q,
                           WhitmanIterativeStats* stats) const {
  return LeqChecked(p, q, ExecContext::Unbounded(), stats).value();
}

Result<bool> WhitmanIterative::LeqChecked(ExprId p, ExprId q,
                                          const ExecContext& ctx,
                                          WhitmanIterativeStats* stats) const {
  const ExprArena& a = *arena_;
  std::vector<Frame> stack;
  stack.push_back({p, q, 0});
  std::size_t peak = 1, calls = 1;
  bool ret = false;
  bool have_return = false;

  while (!stack.empty()) {
    Frame& f = stack.back();
    CallList c = MembersOf(a, f.p, f.q);
    if (c.count == 0) {
      ret = c.leaf_value;
      have_return = true;
      stack.pop_back();
      continue;
    }
    if (have_return) {
      bool short_circuit = c.is_and ? !ret : ret;
      if (short_circuit || f.next_member >= c.count) {
        // Either the connective is decided, or every member has been
        // evaluated — in that case the last child's value IS the frame's
        // value (AND with all-true so far, OR with all-false so far).
        stack.pop_back();
        continue;  // `ret` propagates unchanged, have_return stays true
      }
      have_return = false;  // descend into the next member
    }
    Member m = c.members[f.next_member++];
    stack.push_back({m.p, m.q, 0});
    ++calls;
    peak = std::max(peak, stack.size());
    PSEM_RETURN_IF_ERROR(ctx.CheckDepth(stack.size()));
    if ((calls % kWhitmanCheckStride) == 0) PSEM_RETURN_IF_ERROR(ctx.Check());
  }
  if (stats != nullptr) {
    stats->peak_stack_depth = std::max(stats->peak_stack_depth, peak);
    stats->total_calls += calls;
  }
  assert(have_return);
  return ret;
}

Result<bool> WhitmanIterative::EqChecked(ExprId p, ExprId q,
                                         const ExecContext& ctx,
                                         WhitmanIterativeStats* stats) const {
  PSEM_ASSIGN_OR_RETURN(bool fwd, LeqChecked(p, q, ctx, stats));
  if (!fwd) return false;
  return LeqChecked(q, p, ctx, stats);
}

}  // namespace psem
