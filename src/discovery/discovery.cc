#include "discovery/discovery.h"

#include <algorithm>
#include <unordered_map>

#include "partition/dense.h"

namespace psem {

namespace {

// Candidate lhs sets are column-index bitmasks (arity <= 30 or so; the
// levelwise bound keeps this tame).
using ColMask = uint32_t;

// Dense column PLIs: column[c] groups row indices by the value in c.
std::vector<DensePartition> DenseColumns(const Relation& r, DenseOps* ops) {
  std::vector<DensePartition> column(r.arity());
  std::vector<uint32_t> values(r.size());
  for (std::size_t c = 0; c < r.arity(); ++c) {
    for (uint32_t i = 0; i < r.size(); ++i) values[i] = r.row(i)[c];
    ops->GroupByValues(values, &column[c]);
  }
  return column;
}

}  // namespace

Partition ColumnPartition(const Relation& r, std::size_t column) {
  std::vector<Elem> population(r.size());
  std::vector<uint32_t> values(r.size());
  for (uint32_t i = 0; i < r.size(); ++i) {
    population[i] = i;
    values[i] = r.row(i)[column];
  }
  DenseOps ops;
  DensePartition grouped;
  ops.GroupByValues(values, &grouped);
  return Partition::FromLabels(std::move(population), grouped.labels);
}

Result<std::vector<Fd>> DiscoverFds(const Database& db, const Relation& r,
                                    const FdDiscoveryOptions& options) {
  const std::size_t arity = r.arity();
  if (arity > 24) {
    return Status::InvalidArgument("relation too wide for lattice search");
  }
  if (r.empty()) {
    return Status::FailedPrecondition(
        "FD discovery over an empty relation is vacuous");
  }
  DenseOps ops;
  std::vector<DensePartition> column = DenseColumns(r, &ops);

  std::vector<Fd> out;
  const std::size_t n = db.universe().size();
  // For minimality pruning: for each rhs attr, the set of minimal lhs
  // masks found so far.
  std::vector<std::vector<ColMask>> minimal_lhs(arity);
  // X -> a still needs a check: a is outside X and no lhs already found
  // for a is a subset of X. Only smaller levels can dominate X, so this
  // is settled for level k + 1 once level k's checks are done.
  auto open = [&](ColMask x, std::size_t a) {
    if (x & (ColMask{1} << a)) return false;  // trivial
    for (ColMask seen : minimal_lhs[a]) {
      if ((seen & x) == seen) return false;
    }
    return true;
  };
  auto any_open = [&](ColMask x) {
    for (std::size_t a = 0; a < arity; ++a) {
      if (open(x, a)) return true;
    }
    return false;
  };
  // The masks of one level in ascending order (Gosper's hack).
  auto level_masks = [&](std::size_t k) {
    std::vector<ColMask> masks;
    const ColMask end = ColMask{1} << arity;
    for (ColMask m = (ColMask{1} << k) - 1; m < end;) {
      masks.push_back(m);
      ColMask low = m & -m;
      ColMask ripple = m + low;
      m = (((ripple ^ m) >> 2) / low) | ripple;
    }
    return masks;
  };

  // Stripped PLIs of the previous level, keyed by mask. r |= X -> a iff
  // pi_X refines pi_a; with X = {low} + rest, that is "does
  // PLI(rest) * column[low] refine column[a]?", answered without building
  // PLI(X). Level k's PLIs are built only after its checks, and only for
  // the rests of level k + 1's open masks; level k - 1 is then dropped,
  // so at most two levels are held and the top level is never built.
  // (Every subset of an open mask is open, so each rest's own rest is in
  // the previous level.)
  std::unordered_map<ColMask, StrippedPartition> prev, next;
  const std::size_t top = std::min(options.max_lhs_size, arity);
  std::vector<ColMask> masks = level_masks(1);
  for (std::size_t k = 1; k <= top; ++k) {
    for (ColMask x : masks) {
      const int low = __builtin_ctz(x);
      const ColMask rest = x & (x - 1);
      for (std::size_t a = 0; a < arity; ++a) {
        if (!open(x, a)) continue;
        bool holds = rest == 0 ? ops.Refines(column[low], column[a])
                               : ops.StrippedProductRefines(
                                     prev.at(rest), column[low], column[a]);
        if (!holds) continue;
        minimal_lhs[a].push_back(x);
        AttrSet lhs(n), rhs(n);
        for (std::size_t c = 0; c < arity; ++c) {
          if (x & (ColMask{1} << c)) lhs.Set(r.schema().attrs[c]);
        }
        rhs.Set(r.schema().attrs[a]);
        out.push_back(Fd{std::move(lhs), std::move(rhs)});
        if (out.size() >= options.max_results) return out;
      }
    }
    if (k == top) break;
    masks = level_masks(k + 1);
    next.clear();
    for (ColMask m : masks) {
      const ColMask x = m & (m - 1);
      if (next.contains(x) || !any_open(m)) continue;
      const int low = __builtin_ctz(x);
      const ColMask rest = x & (x - 1);
      StrippedPartition& sp = next[x];
      if (rest == 0) {
        ops.Strip(column[low], &sp);
      } else {
        ops.StrippedProduct(prev.at(rest), column[low], &sp);
      }
    }
    prev.swap(next);
  }
  return out;
}

std::string PdPattern::ToString(const Universe& universe) const {
  const std::string& cn = universe.NameOf(c);
  const std::string& an = universe.NameOf(a);
  const std::string& bn = universe.NameOf(b);
  switch (kind) {
    case Kind::kProduct:
      return cn + " = " + an + "*" + bn;
    case Kind::kSum:
      return cn + " = " + an + "+" + bn;
    case Kind::kSumUpper:
      return cn + " <= " + an + "+" + bn;
  }
  return "?";
}

Result<std::vector<PdPattern>> DiscoverPdPatterns(const Database& /*db*/,
                                                  const Relation& r) {
  const std::size_t arity = r.arity();
  if (r.empty()) {
    return Status::FailedPrecondition(
        "PD discovery over an empty relation is vacuous");
  }
  DenseOps ops;
  std::vector<DensePartition> column = DenseColumns(r, &ops);

  // The lattice turns each pattern into refinement tests (Theorem 1):
  // C = A*B iff C <= A, C <= B and A*B <= C, and the last needs no
  // product (StrippedProductRefines). For the sum, C <= A+B is free when
  // A+B is the one-block top, impossible when C has fewer blocks, and
  // otherwise one scan; C = A+B iff C <= A+B with as many blocks.
  std::vector<char> refines(arity * arity, 0);
  for (std::size_t c = 0; c < arity; ++c) {
    for (std::size_t a = 0; a < arity; ++a) {
      if (a != c) refines[c * arity + a] = ops.Refines(column[c], column[a]);
    }
  }
  std::vector<PdPattern> out;
  StrippedPartition strip_a;
  DensePartition sum;
  for (std::size_t a = 0; a < arity; ++a) {
    ops.Strip(column[a], &strip_a);
    for (std::size_t b = a + 1; b < arity; ++b) {
      ops.Sum(column[a], column[b], &sum);
      for (std::size_t c = 0; c < arity; ++c) {
        if (c == a || c == b) continue;
        RelAttrId ca = r.schema().attrs[a];
        RelAttrId cb = r.schema().attrs[b];
        RelAttrId cc = r.schema().attrs[c];
        if (refines[c * arity + a] && refines[c * arity + b] &&
            ops.StrippedProductRefines(strip_a, column[b], column[c])) {
          out.push_back(PdPattern{PdPattern::Kind::kProduct, cc, ca, cb});
        }
        const uint32_t blocks = column[c].num_blocks;
        bool below_sum = sum.num_blocks == 1 ||
                         (blocks >= sum.num_blocks &&
                          ops.Refines(column[c], sum));
        if (!below_sum) continue;
        out.push_back(PdPattern{blocks == sum.num_blocks
                                    ? PdPattern::Kind::kSum
                                    : PdPattern::Kind::kSumUpper,
                                cc, ca, cb});
      }
    }
  }
  return out;
}

}  // namespace psem
