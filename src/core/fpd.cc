#include "core/fpd.h"

#include <algorithm>
#include <set>

namespace psem {

namespace {

// Product of the attribute set's names, in universe-id order.
ExprId ProductOfSet(const Universe& universe, ExprArena* arena,
                    const AttrSet& s) {
  std::vector<ExprId> parts;
  s.ForEach([&](std::size_t a) {
    parts.push_back(arena->Attr(universe.NameOf(static_cast<RelAttrId>(a))));
  });
  return arena->ProductOf(parts);
}

}  // namespace

Pd FdToFpd(const Universe& universe, ExprArena* arena, const Fd& fd) {
  ExprId x = ProductOfSet(universe, arena, fd.lhs);
  ExprId y = ProductOfSet(universe, arena, fd.rhs);
  return Pd::Leq(x, y);
}

std::vector<Pd> FdsToFpds(const Universe& universe, ExprArena* arena,
                          const std::vector<Fd>& fds) {
  std::vector<Pd> out;
  out.reserve(fds.size());
  for (const Fd& fd : fds) out.push_back(FdToFpd(universe, arena, fd));
  return out;
}

std::vector<Pd> FpdSpellings(const Universe& universe, ExprArena* arena,
                             const Fd& fd) {
  ExprId x = ProductOfSet(universe, arena, fd.lhs);
  ExprId y = ProductOfSet(universe, arena, fd.rhs);
  return {
      Pd::Eq(x, arena->Product(x, y)),  // X = X * Y
      Pd::Eq(y, arena->Sum(y, x)),      // Y = Y + X
      Pd::Leq(x, y),                    // X <= Y
  };
}

namespace {

// If `e` is a pure product of attributes, returns their ids (interning
// names into the universe); otherwise nullopt.
std::optional<AttrSet> AsAttrProduct(const ExprArena& arena,
                                     Universe* universe, ExprId e) {
  // Factors intern left to right: PostOrder yields attributes in order of
  // first occurrence, and the walk stops at sums.
  auto sum = [&](ExprId x) { return arena.KindOf(x) == ExprKind::kSum; };
  std::vector<std::string> names;
  for (ExprId x : arena.PostOrder(e, sum)) {
    if (sum(x)) return std::nullopt;
    if (arena.IsAttr(x)) names.push_back(arena.AttrName(arena.AttrOf(x)));
  }
  return universe->MakeSet(names);
}

}  // namespace

std::optional<Fd> FpdToFd(const ExprArena& arena, Universe* universe,
                          const Pd& pd) {
  auto lhs = AsAttrProduct(arena, universe, pd.lhs);
  if (!lhs) return std::nullopt;
  if (!pd.is_equation) {
    auto rhs = AsAttrProduct(arena, universe, pd.rhs);
    if (!rhs) return std::nullopt;
    // X <= Y  ~  X -> Y.
    std::size_t n = universe->size();
    AttrSet x(n), y(n);
    lhs->ForEach([&](std::size_t i) { x.Set(i); });
    rhs->ForEach([&](std::size_t i) { y.Set(i); });
    return Fd{x, y};
  }
  // Equation: accept X = X*Y where rhs's attribute set contains lhs's.
  auto rhs = AsAttrProduct(arena, universe, pd.rhs);
  if (!rhs) return std::nullopt;
  std::size_t n = universe->size();
  AttrSet x(n), xy(n);
  lhs->ForEach([&](std::size_t i) { x.Set(i); });
  rhs->ForEach([&](std::size_t i) { xy.Set(i); });
  if (!x.IsSubsetOf(xy)) return std::nullopt;
  AttrSet y = xy;
  y.SubtractWith(x);
  if (!y.Any()) return std::nullopt;
  return Fd{x, y};
}

}  // namespace psem
