// Partition expressions (Section 3.1 of the paper): the finite expressions
// W(U) built from attributes with the two uninterpreted binary operators
// `*` (partition product / lattice meet) and `+` (partition sum / lattice
// join). Expressions are hash-consed into an ExprArena so that structural
// equality is id equality and subexpression enumeration is cheap — this is
// what makes Algorithm ALG's vertex set V (Section 5.2) a dense index
// space.

#ifndef PSEM_LATTICE_EXPR_H_
#define PSEM_LATTICE_EXPR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/interner.h"
#include "util/status.h"

namespace psem {

/// Dense id of an expression inside an ExprArena.
using ExprId = uint32_t;

/// Sentinel "no expression".
inline constexpr ExprId kNoExpr = UINT32_MAX;

/// Dense id of an attribute name inside an ExprArena.
using AttrId = uint32_t;

/// Node kind of a partition expression.
enum class ExprKind : uint8_t {
  kAttr,     ///< A generator: an attribute of the universe.
  kProduct,  ///< e * e'   (partition product, lattice meet).
  kSum,      ///< e + e'   (partition sum, lattice join).
};

/// A partition dependency (Definition 3) or its inequality form.
/// `lhs = rhs` when is_equation, else `lhs <= rhs` — the latter abbreviates
/// the equation lhs = lhs * rhs via the natural partial order (Section 2.2).
struct Pd {
  ExprId lhs = kNoExpr;
  ExprId rhs = kNoExpr;
  bool is_equation = true;

  static Pd Eq(ExprId l, ExprId r) { return Pd{l, r, true}; }
  static Pd Leq(ExprId l, ExprId r) { return Pd{l, r, false}; }

  bool operator==(const Pd&) const = default;
};

/// Arena of hash-consed partition expressions over a private attribute
/// interner. Structurally identical expressions receive the same ExprId.
///
/// Thread-compatibility: const access is safe concurrently; construction
/// methods are not synchronized.
class ExprArena {
 public:
  ExprArena() = default;

  // --- construction -------------------------------------------------------

  /// Interns an attribute name and returns the attribute expression for it.
  ExprId Attr(std::string_view name);

  /// The attribute expression for an already-interned attribute id.
  ExprId AttrExpr(AttrId attr);

  /// (l * r). No algebraic normalization is performed: the lattice axioms
  /// are the business of the deciders, not of the syntax (Section 3.1).
  ExprId Product(ExprId l, ExprId r);

  /// (l + r).
  ExprId Sum(ExprId l, ExprId r);

  /// Left-nested product of one or more expressions.
  ExprId ProductOf(std::span<const ExprId> parts);

  /// Left-nested sum of one or more expressions.
  ExprId SumOf(std::span<const ExprId> parts);

  /// Left-nested product of attribute names; this is the meaning the paper
  /// gives to a relation scheme R[A1...Ak] and to an attribute set used
  /// inside a PD (Section 3.2).
  ExprId ProductOfAttrs(std::span<const std::string> names);

  // --- parsing / printing -------------------------------------------------

  /// Parses an expression. Grammar (standard precedence, `*` binds tighter):
  ///   expr   := term ('+' term)*
  ///   term   := factor ('*' factor)*
  ///   factor := IDENT | '(' expr ')'
  Result<ExprId> Parse(std::string_view text);

  /// Parser guard for untrusted input: parenthesis-nesting deeper than
  /// this is rejected with kInvalidArgument instead of recursing (a
  /// million-paren input must return a Status, not smash the stack).
  static constexpr std::size_t kMaxParseDepth = 2000;

  /// Parses a PD: "e = e'" or "e <= e'".
  Result<Pd> ParsePd(std::string_view text);

  /// Minimal-parentheses rendering (products print without parens inside
  /// sums; a right operand of the same operator keeps its parens), so
  /// ParsePd(ToString(pd)) rebuilds the same tree.
  std::string ToString(ExprId id) const;

  /// Renders a Pd using the same expression syntax.
  std::string ToString(const Pd& pd) const;

  // --- accessors -----------------------------------------------------------

  std::size_t size() const { return nodes_.size(); }
  ExprKind KindOf(ExprId id) const { return nodes_[id].kind; }
  bool IsAttr(ExprId id) const { return nodes_[id].kind == ExprKind::kAttr; }
  /// Attribute id of an attribute node. Precondition: IsAttr(id).
  AttrId AttrOf(ExprId id) const { return nodes_[id].attr; }
  /// Left child. Precondition: !IsAttr(id).
  ExprId LhsOf(ExprId id) const { return nodes_[id].lhs; }
  /// Right child. Precondition: !IsAttr(id).
  ExprId RhsOf(ExprId id) const { return nodes_[id].rhs; }

  /// Complexity in the sense of Theorem 8's proof: the number of operator
  /// instances in the expression tree, saturating at UINT32_MAX (a DAG
  /// squared 32 times has more tree nodes than that).
  uint32_t Complexity(ExprId id) const { return nodes_[id].complexity; }

  /// Number of nodes in the expression tree (attrs + operators), saturating
  /// at UINT32_MAX like Complexity.
  uint32_t TreeSize(ExprId id) const {
    const uint32_t c = nodes_[id].complexity;
    return c > (UINT32_MAX - 1) / 2 ? UINT32_MAX : 2 * c + 1;
  }

  const StringInterner& attr_names() const { return attr_names_; }
  std::size_t num_attrs() const { return attr_names_.size(); }
  const std::string& AttrName(AttrId a) const { return attr_names_.NameOf(a); }

  /// The library's one children-first walk: each distinct subexpression
  /// of `roots`, once, in the order a left-to-right recursion finishes
  /// them (lhs subtree, rhs subtree, node; roots in turn). A node `stop`
  /// accepts is yielded as a leaf, not descended into; `stop` must not
  /// start another walk. Pending nodes live on a heap stack, so height is
  /// never native stack depth, and a shared DAG costs its distinct nodes,
  /// not its tree size.
  template <typename Stop = bool (*)(ExprId)>
  std::vector<ExprId> PostOrder(std::span<const ExprId> roots,
                                Stop stop = Never) const;
  template <typename Stop = bool (*)(ExprId)>
  std::vector<ExprId> PostOrder(ExprId root, Stop stop = Never) const {
    return PostOrder(std::span<const ExprId>(&root, 1), stop);
  }

  /// The set of attribute ids occurring in `id`.
  void CollectAttrs(ExprId id, std::set<AttrId>* out) const;

 private:
  struct Node {
    ExprKind kind;
    AttrId attr;  // valid iff kind == kAttr; 0 otherwise
    ExprId lhs;   // kNoExpr for a leaf
    ExprId rhs;
    uint32_t complexity;  // a function of the key, so == compares keys
    bool operator==(const Node&) const = default;
  };

  ExprId InternNode(ExprKind kind, AttrId attr, ExprId l, ExprId r);
  // The hash-cons key: (kind, lhs, rhs) for an operator, (kind, attr) for a
  // leaf.
  static uint64_t KeyHash(const Node& n) {
    return MixHash(n.kind == ExprKind::kAttr ? n.attr : n.lhs, n.rhs,
                   static_cast<uint64_t>(n.kind));
  }
  static bool Never(ExprId) { return false; }

  std::vector<Node> nodes_;
  FlatIdIndex intern_;  // the hash-cons table, over nodes_
  StringInterner attr_names_;
  std::vector<ExprId> attr_expr_;  // attr id -> expr id of its leaf node
};

template <typename Stop>
std::vector<ExprId> ExprArena::PostOrder(std::span<const ExprId> roots,
                                         Stop stop) const {
  // An open operator node; the child it enters next: 0 lhs, 1 rhs, 2 none.
  struct Frame {
    ExprId id;
    uint32_t next;
  };
  // Per-thread scratch kept across calls, clean on return: entry marks
  // indexed by ExprId, and the frame stack. Hence `stop` must not walk.
  thread_local std::vector<uint8_t> marks;
  thread_local std::vector<Frame> frames;
  std::vector<uint8_t>& entered = marks;
  std::vector<Frame>& open = frames;
  if (entered.size() < nodes_.size()) entered.resize(nodes_.size());
  std::vector<ExprId> order;
  order.reserve(roots.size());
  auto enter = [&](ExprId id) {
    if (entered[id]) return;
    entered[id] = 1;
    if (stop(id) || IsAttr(id)) {
      order.push_back(id);
    } else {
      open.push_back({id, 0});
    }
  };
  for (ExprId root : roots) {
    enter(root);
    while (!open.empty()) {
      Frame& f = open.back();
      if (f.next == 2) {
        order.push_back(f.id);
        open.pop_back();
        continue;
      }
      const Node& n = nodes_[f.id];
      enter(f.next++ == 0 ? n.lhs : n.rhs);  // may reallocate `open`
    }
  }
  for (ExprId id : order) entered[id] = 0;
  return order;
}

/// Evaluates `root` bottom-up over its PostOrder: each distinct
/// subexpression once, an attribute by `leaf(e)` (a Result<T>), an
/// operator node by `op(e, lhs_value, rhs_value)` (a T). A value is dropped
/// once its last parent has read it, so a chain of any height keeps O(1)
/// values live. Returns the first failing leaf's Status.
template <typename T, typename Leaf, typename Op>
Result<T> FoldPostOrder(const ExprArena& arena, ExprId root, Leaf leaf,
                        Op op) {
  const std::vector<ExprId> order = arena.PostOrder(root);
  // Each node's value, and the reads still due (one per parent edge, one
  // for the caller), sit at its position in the walk, found by binary
  // search over (ExprId, position) pairs: `op` may grow the arena.
  std::vector<std::pair<ExprId, uint32_t>> at(order.size());
  for (uint32_t p = 0; p < order.size(); ++p) at[p] = {order[p], p};
  std::sort(at.begin(), at.end());
  struct Slot {
    uint32_t reads = 0;
    std::optional<T> val;
  };
  std::vector<Slot> slots(order.size());
  auto slot = [&](ExprId e) -> Slot& {
    return slots[std::lower_bound(at.begin(), at.end(), std::pair(e, 0u))->second];
  };
  slots.back().reads = 1;  // the root, last in the walk
  for (ExprId e : order) {
    if (arena.IsAttr(e)) continue;
    ++slot(arena.LhsOf(e)).reads;
    ++slot(arena.RhsOf(e)).reads;
  }
  for (uint32_t p = 0; p < order.size(); ++p) {
    const ExprId e = order[p];
    if (arena.IsAttr(e)) {
      PSEM_ASSIGN_OR_RETURN(T v, leaf(e));
      slots[p].val.emplace(std::move(v));
      continue;
    }
    Slot &l = slot(arena.LhsOf(e)), &r = slot(arena.RhsOf(e));
    slots[p].val.emplace(op(e, *l.val, *r.val));
    for (Slot* child : {&l, &r}) {
      if (--child->reads == 0) child->val.reset();
    }
  }
  return std::move(*slots.back().val);
}

/// The dual of an expression: swap every * with + (and vice versa). The
/// duality principle of lattice theory — used throughout the paper, e.g.
/// to move between the two FPD spellings X = X*Y and Y = Y+X — says p <=
/// q is a lattice identity iff Dual(q) <= Dual(p) is.
ExprId DualExpr(ExprArena* arena, ExprId e);

/// Dual of a PD: sides dualized; for the <= form the order flips.
Pd DualPd(ExprArena* arena, const Pd& pd);

}  // namespace psem

#endif  // PSEM_LATTICE_EXPR_H_
