#include "chase/tableau.h"

#include <algorithm>
#include <unordered_map>

#include "partition/dense.h"
#include "util/failpoint.h"

namespace psem {

Tableau Tableau::Representative(const Database& db,
                                std::size_t universe_width) {
  Tableau t;
  t.width_ = universe_width;

  // Constants: reuse the database's ValueIds densely [0, #symbols).
  t.num_constants_ = db.symbols().size();
  uint32_t next_value = static_cast<uint32_t>(t.num_constants_);

  std::size_t total_rows = 0;
  for (std::size_t ri = 0; ri < db.num_relations(); ++ri) {
    total_rows += db.relation(ri).size();
  }
  t.rows_.reserve(total_rows);
  for (std::size_t ri = 0; ri < db.num_relations(); ++ri) {
    const Relation& r = db.relation(ri);
    for (const Tuple& tup : r.rows()) {
      std::vector<uint32_t> row(universe_width, 0);
      std::vector<bool> filled(universe_width, false);
      for (std::size_t c = 0; c < r.arity(); ++c) {
        RelAttrId a = r.schema().attrs[c];
        row[a] = tup[c];  // constant id
        filled[a] = true;
      }
      for (std::size_t a = 0; a < universe_width; ++a) {
        if (!filled[a]) row[a] = next_value++;  // fresh labeled null
      }
      t.rows_.push_back(std::move(row));
    }
  }
  t.classes_ = UnionFind(next_value);
  t.class_constant_.assign(next_value, kNoConstant);
  for (uint32_t v = 0; v < t.num_constants_; ++v) t.class_constant_[v] = v;
  return t;
}

Status Tableau::EquateCells(std::size_t row1, std::size_t col1,
                            std::size_t row2, std::size_t col2) {
  uint32_t a = classes_.Find(rows_[row1][col1]);
  uint32_t b = classes_.Find(rows_[row2][col2]);
  if (a == b) return Status::OK();
  uint32_t ca = class_constant_[a];
  uint32_t cb = class_constant_[b];
  if (ca != kNoConstant && cb != kNoConstant && ca != cb) {
    return Status::Inconsistent("chase equates distinct constants");
  }
  classes_.Union(a, b);
  uint32_t root = classes_.Find(a);
  class_constant_[root] = (ca != kNoConstant) ? ca : cb;
  return Status::OK();
}

std::string Tableau::ToString(const Database& db,
                              const Universe& universe) const {
  std::string out;
  for (std::size_t a = 0; a < width_; ++a) {
    out += (a < universe.size() ? universe.NameOf(static_cast<RelAttrId>(a))
                                : "?");
    out += "\t";
  }
  out += "\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < width_; ++c) {
      uint32_t v = classes_.Find(rows_[r][c]);
      uint32_t k = class_constant_[v];
      if (k != kNoConstant) {
        out += db.symbols().NameOf(k);
      } else {
        out += "_n" + std::to_string(v);
      }
      out += "\t";
    }
    out += "\n";
  }
  return out;
}

ChaseResult ChaseWithFds(Tableau* tableau, const std::vector<Fd>& fds,
                         const ExecContext& ctx) {
  ChaseResult result;
  const bool governed = !ctx.unbounded();
  const std::size_t n = tableau->num_rows();
  // Row grouping runs on the dense kernels: the rows agreeing on X are
  // exactly the blocks of the one-block partition refined by each X
  // column's resolved value. Scratch is hoisted so rounds allocate
  // nothing once the buffers reach their high-water marks.
  DenseOps ops;
  DensePartition ones, px, pxt;
  ones.labels.assign(n, 0);
  ones.num_blocks = n == 0 ? 0 : 1;
  ones.present = static_cast<uint32_t>(n);
  std::vector<uint32_t> first;
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.rounds;
    if (PSEM_FAILPOINT(failpoints::kChaseRound)) {
      result.status =
          Status::Internal("injected chase-round fault (psem.chase.round)");
      return result;
    }
    if (governed) {
      // An abort mid-chase is harmless: every merge already applied was
      // forced by an FD, so the partially chased tableau is a sound
      // intermediate state of the same confluent chase.
      Status st = ctx.CheckRounds(result.rounds);
      if (st.ok()) st = ctx.Check();
      if (!st.ok()) {
        result.status = std::move(st);
        return result;
      }
    }
    for (const Fd& fd : fds) {
      if (governed) {
        Status st = ctx.Check();
        if (!st.ok()) {
          result.status = std::move(st);
          return result;
        }
      }
      // Columns of the FD (ids are universe ids = tableau columns).
      std::vector<std::size_t> xcols, ycols;
      fd.lhs.ForEach([&](std::size_t a) {
        if (a < tableau->width()) xcols.push_back(a);
      });
      fd.rhs.ForEach([&](std::size_t a) {
        if (a < tableau->width()) ycols.push_back(a);
      });
      if (xcols.empty()) continue;
      // Group rows by resolved X projection: refine the one-block
      // partition by each X column. Merges applied below only ever unite
      // value classes, so rows grouped together stay X-equal; newly equal
      // projections are caught by the next round of the fixpoint.
      const DensePartition* cur = &ones;
      for (std::size_t c : xcols) {
        DensePartition* next = (cur == &px) ? &pxt : &px;
        ops.RefineBy(
            *cur,
            [&](std::size_t r) {
              return tableau->Resolve(static_cast<std::size_t>(r), c);
            },
            next);
        cur = next;
      }
      // Equate every row's Y cells with its group's first row (the chase
      // is confluent, so chaining to the first row reaches the same
      // fixpoint as the pairwise sweep).
      first.assign(cur->num_blocks, UINT32_MAX);
      for (uint32_t r = 0; r < n; ++r) {
        uint32_t l = cur->labels[r];
        if (first[l] == UINT32_MAX) {
          first[l] = r;
          continue;
        }
        uint32_t f = first[l];
        for (std::size_t c : ycols) {
          if (tableau->Resolve(f, c) == tableau->Resolve(r, c)) continue;
          Status st = tableau->EquateCells(f, c, r, c);
          ++result.merges;
          changed = true;
          if (!st.ok()) {
            result.consistent = false;
            return result;
          }
        }
      }
    }
  }
  result.consistent = true;
  return result;
}

namespace {
std::size_t EffectiveWidth(const Database& db, const std::vector<Fd>& fds,
                           std::size_t universe_width) {
  std::size_t width = universe_width == 0 ? db.universe().size()
                                          : universe_width;
  // FDs may reference attributes beyond db's universe (fresh normalization
  // attributes); make sure the tableau covers them.
  for (const Fd& fd : fds) {
    width = std::max(width, fd.lhs.size());
    width = std::max(width, fd.rhs.size());
  }
  return width;
}
}  // namespace

bool WeakInstanceConsistent(const Database& db, const std::vector<Fd>& fds,
                            std::size_t universe_width) {
  return WeakInstanceConsistentChecked(db, fds, universe_width,
                                       ExecContext::Unbounded())
      .value();
}

Result<bool> WeakInstanceConsistentChecked(const Database& db,
                                           const std::vector<Fd>& fds,
                                           std::size_t universe_width,
                                           const ExecContext& ctx) {
  PSEM_RETURN_IF_ERROR(ctx.Check());
  Tableau t = Tableau::Representative(db, EffectiveWidth(db, fds,
                                                         universe_width));
  ChaseResult r = ChaseWithFds(&t, fds, ctx);
  PSEM_RETURN_IF_ERROR(r.status);
  return r.consistent;
}

}  // namespace psem
