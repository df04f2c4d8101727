// Tableaux with labeled nulls and the Honeyman chase [19]. A database d
// over universe U is consistent with a set of FDs under the weak instance
// assumption iff the chase of its representative tableau (each tuple
// padded with fresh nulls to full width) equates no two distinct
// constants. Theorems 6 and 7 make this the decision procedure for
// partition-interpretation consistency as well.

#ifndef PSEM_CHASE_TABLEAU_H_
#define PSEM_CHASE_TABLEAU_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/dependency.h"
#include "relational/relation.h"
#include "util/exec_context.h"
#include "util/status.h"
#include "util/union_find.h"

namespace psem {

/// A tableau cell value: either a database constant or a labeled null.
/// Values live in one dense id space; ids below num_constants() are
/// constants (indexing the owning database's SymbolTable), the rest nulls.
class Tableau {
 public:
  /// Builds the representative tableau of `db` over the attribute id
  /// range [0, universe_width): one row per database tuple, known cells
  /// copied, all others fresh labeled nulls. `universe_width` may exceed
  /// the attributes present in db (e.g. the fresh attributes introduced by
  /// PD normalization).
  static Tableau Representative(const Database& db, std::size_t universe_width);

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t width() const { return width_; }

  /// Raw (pre-chase) cell id.
  uint32_t CellId(std::size_t row, std::size_t col) const {
    return rows_[row][col];
  }

  /// Canonical class representative of a cell after any number of merges.
  uint32_t Resolve(std::size_t row, std::size_t col) const {
    return classes_.Find(rows_[row][col]);
  }

  /// The constant in a value class, or kNoConstant.
  static constexpr uint32_t kNoConstant = UINT32_MAX;
  uint32_t ConstantOf(uint32_t value_class) const {
    return class_constant_[classes_.Find(value_class)];
  }

  bool IsConstant(uint32_t value) const { return value < num_constants_; }
  std::size_t num_constants() const { return num_constants_; }

  /// Equates two cells' value classes. Returns InconsistentError if that
  /// would identify two distinct constants (the chase failure condition).
  Status EquateCells(std::size_t row1, std::size_t col1, std::size_t row2,
                     std::size_t col2);

  /// Renders using the database's symbol table for constants and _nK for
  /// nulls.
  std::string ToString(const Database& db, const Universe& universe) const;

 private:
  friend class ChaseRunner;

  std::size_t width_ = 0;
  std::size_t num_constants_ = 0;
  std::vector<std::vector<uint32_t>> rows_;
  mutable UnionFind classes_;
  std::vector<uint32_t> class_constant_;  // per class root (lazily moved)
};

/// Outcome of a chase run.
struct ChaseResult {
  bool consistent = false;
  std::size_t rounds = 0;  ///< full passes over the FD set.
  std::size_t merges = 0;  ///< class unions performed.
  /// OK when the chase ran to its fixpoint (or failed on a genuine
  /// constant clash — that is the Inconsistent *verdict*, not an error).
  /// Non-OK (kResourceExhausted / kCancelled / injected fault) means the
  /// run stopped early: `consistent` is then meaningless, but rounds and
  /// merges reflect the partial progress, and the tableau holds only
  /// sound merges (each forced by an FD), so re-chasing it with a fresh
  /// context converges to the same verdict as a cold chase.
  Status status = Status::OK();
};

/// Chases `tableau` with `fds` (FDs over the same universe ids) to a
/// fixpoint. Returns consistent=false iff two distinct constants were
/// equated. The ctx's round budget, deadline, and cancel token are
/// checked once per round and per FD; see ChaseResult::status.
ChaseResult ChaseWithFds(Tableau* tableau, const std::vector<Fd>& fds,
                         const ExecContext& ctx = ExecContext::Unbounded());

/// Honeyman's test: d is consistent with `fds` under the weak instance
/// assumption iff the chase of the representative tableau succeeds.
/// `universe_width` overrides the tableau width (0 = db's universe size);
/// pass the extended universe's size when the FDs come from PD
/// normalization. WeakInstanceConsistentChecked with an unbounded context.
bool WeakInstanceConsistent(const Database& db, const std::vector<Fd>& fds,
                            std::size_t universe_width = 0);

/// Governed Honeyman test: verdict, or the ctx/fail-point Status that
/// stopped the chase early.
Result<bool> WeakInstanceConsistentChecked(const Database& db,
                                           const std::vector<Fd>& fds,
                                           std::size_t universe_width,
                                           const ExecContext& ctx);

}  // namespace psem

#endif  // PSEM_CHASE_TABLEAU_H_
