// Partition expressions (Section 3.1 of the paper): the finite expressions
// W(U) built from attributes with the two uninterpreted binary operators
// `*` (partition product / lattice meet) and `+` (partition sum / lattice
// join). Expressions are hash-consed into an ExprArena so that structural
// equality is id equality and subexpression enumeration is cheap — this is
// what makes Algorithm ALG's vertex set V (Section 5.2) a dense index
// space.

#ifndef PSEM_LATTICE_EXPR_H_
#define PSEM_LATTICE_EXPR_H_

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
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
  /// instances in the expression tree.
  uint32_t Complexity(ExprId id) const { return nodes_[id].complexity; }

  /// Number of nodes in the expression tree (attrs + operators).
  uint32_t TreeSize(ExprId id) const { return 2 * nodes_[id].complexity + 1; }

  const StringInterner& attr_names() const { return attr_names_; }
  std::size_t num_attrs() const { return attr_names_.size(); }
  const std::string& AttrName(AttrId a) const { return attr_names_.NameOf(a); }

  /// Appends to `out` every distinct subexpression of `id` (including `id`
  /// itself) that is not already present in `seen`; updates `seen`.
  void CollectSubexprs(ExprId id, std::set<ExprId>* seen,
                       std::vector<ExprId>* out) const;

  /// The set of attribute ids occurring in `id`.
  void CollectAttrs(ExprId id, std::set<AttrId>* out) const;

 private:
  struct Node {
    ExprKind kind;
    AttrId attr;  // valid iff kind == kAttr
    ExprId lhs;
    ExprId rhs;
    uint32_t complexity;
  };

  ExprId InternNode(ExprKind kind, AttrId attr, ExprId l, ExprId r);
  void ToStringRec(ExprId id, bool parenthesize, std::string* out) const;

  std::vector<Node> nodes_;
  // key: kind in top 2 bits semantics folded via tuple hash below.
  struct NodeKey {
    ExprKind kind;
    uint32_t a;
    uint32_t b;
    bool operator==(const NodeKey&) const = default;
  };
  struct NodeKeyHash {
    std::size_t operator()(const NodeKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.kind);
      h = h * 0x9e3779b97f4a7c15ull + k.a;
      h = h * 0x9e3779b97f4a7c15ull + k.b;
      h ^= h >> 29;
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<NodeKey, ExprId, NodeKeyHash> intern_;
  StringInterner attr_names_;
  std::vector<ExprId> attr_expr_;  // attr id -> expr id of its leaf node
};

/// The dual of an expression: swap every * with + (and vice versa). The
/// duality principle of lattice theory — used throughout the paper, e.g.
/// to move between the two FPD spellings X = X*Y and Y = Y+X — says p <=
/// q is a lattice identity iff Dual(q) <= Dual(p) is.
ExprId DualExpr(ExprArena* arena, ExprId e);

/// Dual of a PD: sides dualized; for the <= form the order flips.
Pd DualPd(ExprArena* arena, const Pd& pd);

}  // namespace psem

#endif  // PSEM_LATTICE_EXPR_H_
