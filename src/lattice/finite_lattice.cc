#include "lattice/finite_lattice.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>
#include <tuple>

namespace psem {

FiniteLattice::FiniteLattice(std::vector<std::vector<LatticeElem>> meet,
                             std::vector<std::vector<LatticeElem>> join,
                             std::vector<std::string> names)
    : meet_(std::move(meet)), join_(std::move(join)), names_(std::move(names)) {
  assert(meet_.size() == join_.size());
  if (names_.empty()) {
    names_.reserve(meet_.size());
    for (std::size_t i = 0; i < meet_.size(); ++i) {
      names_.push_back('e' + std::to_string(i));
    }
  }
  assert(names_.size() == meet_.size());
}

Status FiniteLattice::ValidateAxioms() const {
  const std::size_t n = size();
  auto fail = [&](const char* law, LatticeElem x, LatticeElem y,
                  LatticeElem z) {
    return Status::FailedPrecondition(
        std::string(law) + " fails at (" + names_[x] + "," + names_[y] + "," +
        names_[z] + ")");
  };
  for (LatticeElem x = 0; x < n; ++x) {
    if (meet_[x].size() != n || join_[x].size() != n) {
      return Status::InvalidArgument("ragged operation table");
    }
    for (LatticeElem y = 0; y < n; ++y) {
      if (meet_[x][y] >= n || join_[x][y] >= n) {
        return Status::InvalidArgument("table entry out of range");
      }
    }
  }
  for (LatticeElem x = 0; x < n; ++x) {
    if (meet_[x][x] != x) return fail("idempotence(*)", x, x, x);
    if (join_[x][x] != x) return fail("idempotence(+)", x, x, x);
    for (LatticeElem y = 0; y < n; ++y) {
      if (meet_[x][y] != meet_[y][x]) return fail("commutativity(*)", x, y, y);
      if (join_[x][y] != join_[y][x]) return fail("commutativity(+)", x, y, y);
      if (join_[x][meet_[x][y]] != x) return fail("absorption(+*)", x, y, y);
      if (meet_[x][join_[x][y]] != x) return fail("absorption(*+)", x, y, y);
      for (LatticeElem z = 0; z < n; ++z) {
        if (meet_[meet_[x][y]][z] != meet_[x][meet_[y][z]]) {
          return fail("associativity(*)", x, y, z);
        }
        if (join_[join_[x][y]][z] != join_[x][join_[y][z]]) {
          return fail("associativity(+)", x, y, z);
        }
      }
    }
  }
  return Status::OK();
}

LatticeElem FiniteLattice::Bottom() const {
  LatticeElem bot = 0;
  for (LatticeElem i = 1; i < size(); ++i) bot = Meet(bot, i);
  return bot;
}

LatticeElem FiniteLattice::Top() const {
  LatticeElem top = 0;
  for (LatticeElem i = 1; i < size(); ++i) top = Join(top, i);
  return top;
}

bool FiniteLattice::IsDistributive() const {
  const std::size_t n = size();
  for (LatticeElem a = 0; a < n; ++a) {
    for (LatticeElem b = 0; b < n; ++b) {
      for (LatticeElem c = 0; c < n; ++c) {
        if (Meet(a, Join(b, c)) != Join(Meet(a, b), Meet(a, c))) return false;
      }
    }
  }
  return true;
}

bool FiniteLattice::IsModular() const {
  const std::size_t n = size();
  for (LatticeElem a = 0; a < n; ++a) {
    for (LatticeElem c = 0; c < n; ++c) {
      if (!Leq(a, c)) continue;
      for (LatticeElem b = 0; b < n; ++b) {
        if (Join(a, Meet(b, c)) != Meet(Join(a, b), c)) return false;
      }
    }
  }
  return true;
}

std::vector<LatticeElem> FiniteLattice::CoversOf(LatticeElem a) const {
  std::vector<LatticeElem> covers;
  for (LatticeElem b = 0; b < size(); ++b) {
    if (b == a || !Leq(a, b)) continue;
    bool immediate = true;
    for (LatticeElem c = 0; c < size(); ++c) {
      if (c != a && c != b && Leq(a, c) && Leq(c, b)) {
        immediate = false;
        break;
      }
    }
    if (immediate) covers.push_back(b);
  }
  return covers;
}

Result<LatticeElem> FiniteLattice::Eval(
    const ExprArena& arena, ExprId e,
    const std::vector<LatticeElem>& assignment) const {
  return FoldPostOrder<LatticeElem>(
      arena, e,
      [&](ExprId leaf) -> Result<LatticeElem> {
        AttrId a = arena.AttrOf(leaf);
        if (a >= assignment.size() || assignment[a] == kNoElem) {
          return Status::NotFound("attribute '" + arena.AttrName(a) +
                                  "' has no lattice constant assigned");
        }
        return assignment[a];
      },
      [&](ExprId node, LatticeElem l, LatticeElem r) {
        return arena.KindOf(node) == ExprKind::kProduct ? Meet(l, r)
                                                        : Join(l, r);
      });
}

Result<bool> FiniteLattice::Satisfies(
    const ExprArena& arena, const Pd& pd,
    const std::vector<LatticeElem>& assignment) const {
  PSEM_ASSIGN_OR_RETURN(LatticeElem l, Eval(arena, pd.lhs, assignment));
  PSEM_ASSIGN_OR_RETURN(LatticeElem r, Eval(arena, pd.rhs, assignment));
  return pd.is_equation ? (l == r) : Leq(l, r);
}

namespace {

// Invariant fingerprint of an element used to prune isomorphism search:
// (#elements below, #elements above, #covers, #co-covers).
struct ElemSignature {
  uint32_t below = 0, above = 0, covers = 0, cocovers = 0;
  bool operator==(const ElemSignature&) const = default;
  bool operator<(const ElemSignature& o) const {
    return std::tie(below, above, covers, cocovers) <
           std::tie(o.below, o.above, o.covers, o.cocovers);
  }
};

std::vector<ElemSignature> Signatures(const FiniteLattice& l) {
  const std::size_t n = l.size();
  std::vector<ElemSignature> sig(n);
  for (LatticeElem a = 0; a < n; ++a) {
    for (LatticeElem b = 0; b < n; ++b) {
      if (a == b) continue;
      if (l.Leq(b, a)) ++sig[a].below;
      if (l.Leq(a, b)) ++sig[a].above;
    }
    sig[a].covers = static_cast<uint32_t>(l.CoversOf(a).size());
  }
  for (LatticeElem a = 0; a < n; ++a) {
    for (LatticeElem b : l.CoversOf(a)) ++sig[b].cocovers;
  }
  return sig;
}

bool ExtendIsomorphism(const FiniteLattice& x, const FiniteLattice& y,
                       const std::vector<ElemSignature>& sx,
                       const std::vector<ElemSignature>& sy,
                       std::vector<LatticeElem>* map,
                       std::vector<bool>* used, LatticeElem next) {
  const std::size_t n = x.size();
  if (next == n) return true;
  for (LatticeElem cand = 0; cand < n; ++cand) {
    if ((*used)[cand] || !(sx[next] == sy[cand])) continue;
    bool ok = true;
    for (LatticeElem prev = 0; prev < next && ok; ++prev) {
      LatticeElem m = x.Meet(next, prev);
      LatticeElem j = x.Join(next, prev);
      // Both operands mapped only when their results are among mapped
      // elements; check the homomorphism condition where defined.
      LatticeElem pm = (*map)[prev];
      if (m <= next && (*map)[m] != FiniteLattice::kNoElem) {
        if (y.Meet(cand, pm) != (*map)[m]) ok = false;
      } else if (m > next) {
        // result not yet mapped; defer (checked when m gets mapped).
      }
      if (ok && j <= next && (*map)[j] != FiniteLattice::kNoElem) {
        if (y.Join(cand, pm) != (*map)[j]) ok = false;
      }
    }
    if (!ok) continue;
    (*map)[next] = cand;
    (*used)[cand] = true;
    // Re-verify all fully-mapped triples involving `next` (results that
    // were deferred above are caught once every element is mapped; to stay
    // sound we do a full check at the leaf).
    if (next + 1 == n) {
      bool full = true;
      for (LatticeElem a = 0; a < n && full; ++a) {
        for (LatticeElem b = 0; b < n && full; ++b) {
          if (y.Meet((*map)[a], (*map)[b]) != (*map)[x.Meet(a, b)]) full = false;
          if (y.Join((*map)[a], (*map)[b]) != (*map)[x.Join(a, b)]) full = false;
        }
      }
      if (full) return true;
    } else if (ExtendIsomorphism(x, y, sx, sy, map, used, next + 1)) {
      return true;
    }
    (*map)[next] = FiniteLattice::kNoElem;
    (*used)[cand] = false;
  }
  return false;
}

}  // namespace

bool FiniteLattice::IsomorphicTo(const FiniteLattice& other) const {
  if (size() != other.size()) return false;
  std::vector<ElemSignature> sx = Signatures(*this);
  std::vector<ElemSignature> sy = Signatures(other);
  std::vector<ElemSignature> a = sx, b = sy;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (!(a == b)) return false;
  std::vector<LatticeElem> map(size(), kNoElem);
  std::vector<bool> used(size(), false);
  return ExtendIsomorphism(*this, other, sx, sy, &map, &used, 0);
}

std::vector<LatticeElem> FiniteLattice::GeneratedSublattice(
    const std::vector<LatticeElem>& seeds) const {
  std::set<LatticeElem> closed(seeds.begin(), seeds.end());
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<LatticeElem> snapshot(closed.begin(), closed.end());
    for (LatticeElem a : snapshot) {
      for (LatticeElem b : snapshot) {
        changed |= closed.insert(Meet(a, b)).second;
        changed |= closed.insert(Join(a, b)).second;
      }
    }
  }
  return {closed.begin(), closed.end()};
}

FiniteLattice FiniteLattice::Restrict(
    const std::vector<LatticeElem>& elems) const {
  std::vector<LatticeElem> old_to_new(size(), kNoElem);
  for (std::size_t i = 0; i < elems.size(); ++i) {
    old_to_new[elems[i]] = static_cast<LatticeElem>(i);
  }
  const std::size_t m = elems.size();
  std::vector<std::vector<LatticeElem>> meet(m, std::vector<LatticeElem>(m, 0));
  std::vector<std::vector<LatticeElem>> join(m, std::vector<LatticeElem>(m, 0));
  std::vector<std::string> names(m);
  for (std::size_t i = 0; i < m; ++i) {
    names[i] = names_[elems[i]];
    for (std::size_t j = 0; j < m; ++j) {
      LatticeElem mm = old_to_new[Meet(elems[i], elems[j])];
      LatticeElem jj = old_to_new[Join(elems[i], elems[j])];
      assert(mm != kNoElem && jj != kNoElem && "set not closed");
      meet[i][j] = mm;
      join[i][j] = jj;
    }
  }
  return FiniteLattice(std::move(meet), std::move(join), std::move(names));
}

FiniteLattice FiniteLattice::Chain(std::size_t n) {
  std::vector<std::vector<LatticeElem>> meet(n, std::vector<LatticeElem>(n));
  std::vector<std::vector<LatticeElem>> join(n, std::vector<LatticeElem>(n));
  for (LatticeElem i = 0; i < n; ++i) {
    for (LatticeElem j = 0; j < n; ++j) {
      meet[i][j] = std::min(i, j);
      join[i][j] = std::max(i, j);
    }
  }
  return FiniteLattice(std::move(meet), std::move(join));
}

FiniteLattice FiniteLattice::Boolean(std::size_t k) {
  const std::size_t n = std::size_t{1} << k;
  std::vector<std::vector<LatticeElem>> meet(n, std::vector<LatticeElem>(n));
  std::vector<std::vector<LatticeElem>> join(n, std::vector<LatticeElem>(n));
  for (LatticeElem i = 0; i < n; ++i) {
    for (LatticeElem j = 0; j < n; ++j) {
      meet[i][j] = i & j;
      join[i][j] = i | j;
    }
  }
  return FiniteLattice(std::move(meet), std::move(join));
}

namespace {

// Builds tables from a Leq relation given as a membership predicate, for
// small hand-specified orders where meets/joins exist.
FiniteLattice FromOrder(std::size_t n, const std::vector<std::vector<bool>>& leq,
                        std::vector<std::string> names) {
  std::vector<std::vector<LatticeElem>> meet(n, std::vector<LatticeElem>(n));
  std::vector<std::vector<LatticeElem>> join(n, std::vector<LatticeElem>(n));
  for (LatticeElem a = 0; a < n; ++a) {
    for (LatticeElem b = 0; b < n; ++b) {
      // Greatest lower bound.
      LatticeElem best = FiniteLattice::kNoElem;
      for (LatticeElem c = 0; c < n; ++c) {
        if (leq[c][a] && leq[c][b] &&
            (best == FiniteLattice::kNoElem || leq[best][c])) {
          best = c;
        }
      }
      meet[a][b] = best;
      // Least upper bound.
      best = FiniteLattice::kNoElem;
      for (LatticeElem c = 0; c < n; ++c) {
        if (leq[a][c] && leq[b][c] &&
            (best == FiniteLattice::kNoElem || leq[c][best])) {
          best = c;
        }
      }
      join[a][b] = best;
    }
  }
  return FiniteLattice(std::move(meet), std::move(join), std::move(names));
}

}  // namespace

FiniteLattice FiniteLattice::DiamondM3() {
  // 0 = bottom, 1,2,3 = atoms, 4 = top.
  const std::size_t n = 5;
  std::vector<std::vector<bool>> leq(n, std::vector<bool>(n, false));
  for (LatticeElem i = 0; i < n; ++i) leq[i][i] = true;
  for (LatticeElem i = 0; i < n; ++i) {
    leq[0][i] = true;
    leq[i][4] = true;
  }
  return FromOrder(n, leq, {"bot", "a", "b", "c", "top"});
}

FiniteLattice FiniteLattice::PentagonN5() {
  // 0 = bottom, 4 = top, chain 0 < 1 < 2 < 4 and 0 < 3 < 4 with 1,2 vs 3
  // incomparable.
  const std::size_t n = 5;
  std::vector<std::vector<bool>> leq(n, std::vector<bool>(n, false));
  for (LatticeElem i = 0; i < n; ++i) {
    leq[i][i] = true;
    leq[0][i] = true;
    leq[i][4] = true;
  }
  leq[1][2] = true;
  return FromOrder(n, leq, {"bot", "x", "y", "z", "top"});
}

FiniteLattice FiniteLattice::Divisors(uint64_t n) {
  std::vector<uint64_t> divs;
  for (uint64_t d = 1; d <= n; ++d) {
    if (n % d == 0) divs.push_back(d);
  }
  const std::size_t m = divs.size();
  auto index_of = [&](uint64_t v) {
    return static_cast<LatticeElem>(
        std::lower_bound(divs.begin(), divs.end(), v) - divs.begin());
  };
  std::vector<std::vector<LatticeElem>> meet(m, std::vector<LatticeElem>(m));
  std::vector<std::vector<LatticeElem>> join(m, std::vector<LatticeElem>(m));
  std::vector<std::string> names(m);
  for (std::size_t i = 0; i < m; ++i) {
    names[i] = std::to_string(divs[i]);
    for (std::size_t j = 0; j < m; ++j) {
      meet[i][j] = index_of(std::gcd(divs[i], divs[j]));
      join[i][j] = index_of(std::lcm(divs[i], divs[j]));
    }
  }
  return FiniteLattice(std::move(meet), std::move(join), std::move(names));
}

}  // namespace psem
