#include "lattice/whitman.h"

#include <algorithm>
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

// Both deciders: the ID-rule recursion as a loop over a heap stack of
// frames, one per live subproblem (what CheckDepth counts). With a memo, a
// decided subproblem is answered instead of pushed, and each frame's
// verdict is stored as it pops: only decided verdicts, so an aborted run
// leaves the memo sound and the decider reusable.
Result<bool> Decide(const ExprArena& a, ExprId p, ExprId q,
                    const ExecContext& ctx,
                    std::unordered_map<uint64_t, bool>* memo,
                    WhitmanIterativeStats* stats) {
  // Per-thread scratch kept across calls; a trip leaves frames behind.
  thread_local std::vector<Frame> frames;
  std::vector<Frame>& stack = frames;
  stack.clear();
  std::size_t peak = 0, calls = 0;
  bool ret = false;
  bool have_return = false;
  Member next{p, q};  // the subproblem to open: a memo hit or a new frame
  for (bool open = true; open;) {
    if (memo != nullptr) {
      if (auto it = memo->find(PairKey(next.p, next.q)); it != memo->end()) {
        ret = it->second;
        have_return = true;
      }
    }
    if (!have_return) {
      stack.push_back({next.p, next.q, 0});
      ++calls;
      peak = std::max(peak, stack.size());
      PSEM_RETURN_IF_ERROR(ctx.CheckDepth(stack.size()));
      if ((calls % kWhitmanCheckStride) == 0) PSEM_RETURN_IF_ERROR(ctx.Check());
    }
    // Pop every decided frame: a leaf, a decided connective, or one whose
    // members are all evaluated — then the last member's value IS the
    // frame's value (AND with all-true so far, OR with all-false so far).
    // The first undecided frame names the next subproblem.
    open = false;
    while (!stack.empty() && !open) {
      Frame& f = stack.back();
      CallList c = MembersOf(a, f.p, f.q);
      if (c.count == 0) {
        ret = c.leaf_value;
      } else if (!have_return ||
                 !((c.is_and ? !ret : ret) || f.next_member >= c.count)) {
        next = c.members[f.next_member++];
        have_return = false;
        open = true;
        continue;
      }
      if (memo != nullptr) memo->emplace(PairKey(f.p, f.q), ret);
      stack.pop_back();
      have_return = true;
    }
  }
  if (stats != nullptr) {
    stats->peak_stack_depth = std::max(stats->peak_stack_depth, peak);
    stats->total_calls += calls;
  }
  return ret;
}

}  // namespace

bool WhitmanMemo::Leq(ExprId p, ExprId q) { return LeqChecked(p, q).value(); }

Result<bool> WhitmanMemo::LeqChecked(ExprId p, ExprId q,
                                     const ExecContext& ctx) {
  return Decide(*arena_, p, q, ctx, &memo_, nullptr);
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
  return Decide(*arena_, p, q, ctx, nullptr, stats);
}

Result<bool> WhitmanIterative::EqChecked(ExprId p, ExprId q,
                                         const ExecContext& ctx,
                                         WhitmanIterativeStats* stats) const {
  PSEM_ASSIGN_OR_RETURN(bool fwd, LeqChecked(p, q, ctx, stats));
  if (!fwd) return false;
  return LeqChecked(q, p, ctx, stats);
}

}  // namespace psem
