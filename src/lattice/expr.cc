#include "lattice/expr.h"

#include <algorithm>
#include <cassert>
#include <cctype>

#include "util/strings.h"

namespace psem {

ExprId ExprArena::InternNode(ExprKind kind, AttrId attr, ExprId l, ExprId r) {
  const uint64_t complexity =
      kind == ExprKind::kAttr
          ? 0
          : uint64_t{nodes_[l].complexity} + nodes_[r].complexity + 1;
  const Node node{kind, attr, l, r,
                  static_cast<uint32_t>(std::min<uint64_t>(complexity,
                                                           UINT32_MAX))};
  intern_.MakeRoom(nodes_.size(),
                   [this](uint32_t id) { return KeyHash(nodes_[id]); });
  uint32_t& slot = intern_.Slot(
      KeyHash(node), [&](uint32_t id) { return nodes_[id] == node; });
  if (slot == 0) {
    nodes_.push_back(node);
    slot = static_cast<uint32_t>(nodes_.size());
  }
  return slot - 1;
}

ExprId ExprArena::Attr(std::string_view name) {
  AttrId attr = attr_names_.Intern(name);
  if (attr < attr_expr_.size()) return attr_expr_[attr];
  assert(attr == attr_expr_.size());
  ExprId id = InternNode(ExprKind::kAttr, attr, kNoExpr, kNoExpr);
  attr_expr_.push_back(id);
  return id;
}

ExprId ExprArena::AttrExpr(AttrId attr) {
  assert(attr < attr_expr_.size());
  return attr_expr_[attr];
}

ExprId ExprArena::Product(ExprId l, ExprId r) {
  return InternNode(ExprKind::kProduct, 0, l, r);
}

ExprId ExprArena::Sum(ExprId l, ExprId r) {
  return InternNode(ExprKind::kSum, 0, l, r);
}

ExprId ExprArena::ProductOf(std::span<const ExprId> parts) {
  assert(!parts.empty());
  ExprId acc = parts[0];
  for (std::size_t i = 1; i < parts.size(); ++i) acc = Product(acc, parts[i]);
  return acc;
}

ExprId ExprArena::SumOf(std::span<const ExprId> parts) {
  assert(!parts.empty());
  ExprId acc = parts[0];
  for (std::size_t i = 1; i < parts.size(); ++i) acc = Sum(acc, parts[i]);
  return acc;
}

ExprId ExprArena::ProductOfAttrs(std::span<const std::string> names) {
  assert(!names.empty());
  ExprId acc = Attr(names[0]);
  for (std::size_t i = 1; i < names.size(); ++i) {
    acc = Product(acc, Attr(names[i]));
  }
  return acc;
}

namespace {

// Error messages quote at most this much of the (untrusted, possibly
// huge or binary) input.
std::string Excerpt(std::string_view text) {
  constexpr std::size_t kMaxQuoted = 64;
  if (text.size() <= kMaxQuoted) return std::string(text);
  return std::string(text.substr(0, kMaxQuoted)) + "... (" +
         std::to_string(text.size()) + " bytes)";
}

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  Parser(ExprArena* arena, std::string_view text)
      : arena_(arena), text_(text), pos_(0) {}

  Result<ExprId> ParseAll() {
    PSEM_ASSIGN_OR_RETURN(ExprId e, ParseExpr());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters at position " +
                                     std::to_string(pos_) + " in '" +
                                     Excerpt(text_) + "'");
    }
    return e;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool Consume(char c) {
    if (Peek(c)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<ExprId> ParseExpr() {
    PSEM_ASSIGN_OR_RETURN(ExprId acc, ParseTerm());
    while (Consume('+')) {
      PSEM_ASSIGN_OR_RETURN(ExprId rhs, ParseTerm());
      acc = arena_->Sum(acc, rhs);
    }
    return acc;
  }

  Result<ExprId> ParseTerm() {
    PSEM_ASSIGN_OR_RETURN(ExprId acc, ParseFactor());
    while (Consume('*')) {
      PSEM_ASSIGN_OR_RETURN(ExprId rhs, ParseFactor());
      acc = arena_->Product(acc, rhs);
    }
    return acc;
  }

  Result<ExprId> ParseFactor() {
    SkipSpace();
    if (Consume('(')) {
      // Untrusted-input guard: nesting depth is the parser's recursion
      // depth, so cap it explicitly rather than riding the native stack
      // into undefined behavior on adversarial input.
      if (++depth_ > ExprArena::kMaxParseDepth) {
        return Status::InvalidArgument(
            "expression nesting exceeds the maximum depth of " +
            std::to_string(ExprArena::kMaxParseDepth));
      }
      PSEM_ASSIGN_OR_RETURN(ExprId inner, ParseExpr());
      --depth_;
      if (!Consume(')')) {
        return Status::InvalidArgument("expected ')' at position " +
                                       std::to_string(pos_) + " in '" +
                                       Excerpt(text_) + "'");
      }
      return inner;
    }
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      auto u = static_cast<unsigned char>(c);
      bool ok = pos_ == start ? (std::isalpha(u) || c == '_')
                              : (std::isalnum(u) || c == '_');
      if (!ok) break;
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected attribute or '(' at position " +
                                     std::to_string(pos_) + " in '" +
                                     Excerpt(text_) + "'");
    }
    return arena_->Attr(text_.substr(start, pos_ - start));
  }

  ExprArena* arena_;
  std::string_view text_;
  std::size_t pos_;
  std::size_t depth_ = 0;  // open parentheses on the recursion path
};

}  // namespace

Result<ExprId> ExprArena::Parse(std::string_view text) {
  Parser p(this, text);
  return p.ParseAll();
}

Result<Pd> ExprArena::ParsePd(std::string_view text) {
  // Find the relation symbol: "<=" or "=" (not inside identifiers; neither
  // character can occur in an expression so a plain scan is safe).
  std::size_t le = text.find("<=");
  std::size_t eq = text.find('=');
  bool is_equation;
  std::size_t split;
  std::size_t rel_len;
  if (le != std::string_view::npos) {
    is_equation = false;
    split = le;
    rel_len = 2;
  } else if (eq != std::string_view::npos) {
    is_equation = true;
    split = eq;
    rel_len = 1;
  } else {
    return Status::InvalidArgument("PD must contain '=' or '<=': '" +
                                   Excerpt(text) + "'");
  }
  PSEM_ASSIGN_OR_RETURN(ExprId lhs, Parse(text.substr(0, split)));
  PSEM_ASSIGN_OR_RETURN(ExprId rhs, Parse(text.substr(split + rel_len)));
  return Pd{lhs, rhs, is_equation};
}

std::string ExprArena::ToString(ExprId id) const {
  // In-order print on an explicit stack of pending pieces: a node, with or
  // without its own parentheses, or one character still to emit.
  struct Piece {
    ExprId id;  // kNoExpr: emit `text`
    char text;
    bool parens;
  };
  std::string out;
  std::vector<Piece> pending{{id, 0, false}};
  while (!pending.empty()) {
    const Piece piece = pending.back();
    pending.pop_back();
    if (piece.id == kNoExpr) {
      out += piece.text;
      continue;
    }
    const Node& n = nodes_[piece.id];
    if (n.kind == ExprKind::kAttr) {
      out += attr_names_.NameOf(n.attr);
      continue;
    }
    // The parser reads '*' tighter than '+' and both left-associative, so
    // a child needs parentheses when it is a sum under '*', or when it is
    // the right operand of its own operator (A*(B*C), A+(B+C)): dropping
    // those would re-parse as a different, left-nested tree.
    const bool product = n.kind == ExprKind::kProduct;
    auto needs_parens = [&](ExprId child, bool right) {
      const ExprKind k = nodes_[child].kind;
      return (product && k == ExprKind::kSum) || (right && k == n.kind);
    };
    if (piece.parens) {
      out += '(';
      pending.push_back({kNoExpr, ')', false});
    }
    pending.push_back({n.rhs, 0, needs_parens(n.rhs, /*right=*/true)});
    pending.push_back({kNoExpr, product ? '*' : '+', false});
    pending.push_back({n.lhs, 0, needs_parens(n.lhs, /*right=*/false)});
  }
  return out;
}

std::string ExprArena::ToString(const Pd& pd) const {
  std::string out = ToString(pd.lhs);
  out += pd.is_equation ? " = " : " <= ";
  out += ToString(pd.rhs);
  return out;
}

void ExprArena::CollectAttrs(ExprId id, std::set<AttrId>* out) const {
  for (ExprId e : PostOrder(id)) {
    if (IsAttr(e)) out->insert(AttrOf(e));
  }
}

ExprId DualExpr(ExprArena* arena, ExprId e) {
  Result<ExprId> dual = FoldPostOrder<ExprId>(
      *arena, e, [](ExprId leaf) -> Result<ExprId> { return leaf; },
      [arena](ExprId node, ExprId l, ExprId r) {
        return arena->KindOf(node) == ExprKind::kProduct ? arena->Sum(l, r)
                                                         : arena->Product(l, r);
      });
  return *dual;
}

Pd DualPd(ExprArena* arena, const Pd& pd) {
  ExprId l = DualExpr(arena, pd.lhs);
  ExprId r = DualExpr(arena, pd.rhs);
  // Duality reverses the order: (p <= q)^d is q^d <= p^d.
  if (pd.is_equation) return Pd::Eq(l, r);
  return Pd::Leq(r, l);
}

}  // namespace psem
