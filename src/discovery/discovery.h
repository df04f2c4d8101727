// Dependency discovery: mining the FDs and PD patterns that hold in a
// concrete relation, using partition refinement — the paper's semantics
// run in reverse. By Theorem 3, r |= X -> Y iff pi_X refines pi_Y in the
// canonical interpretation I(r), and every question here is such a
// yes/no refinement test. The FD search is TANE-style: stripped
// partitions (PLIs) of lhs sets, with X = {low} + rest checked as "does
// PLI(rest) * pi_low refine pi_A?" without building PLI(X), and at most
// two lattice levels of PLIs held at once. On top of the FD lattice
// search, the module mines the paper's genuinely new patterns:
// C = A * B (composite keys), C = A + B (connected components), and
// C <= A + B — also as refinement tests and block counts, never by
// comparing a built product.

#ifndef PSEM_DISCOVERY_DISCOVERY_H_
#define PSEM_DISCOVERY_DISCOVERY_H_

#include <string>
#include <vector>

#include "partition/partition.h"
#include "relational/dependency.h"
#include "relational/relation.h"
#include "util/status.h"

namespace psem {

/// The atomic partition of a relation column: rows grouped by value
/// (population = row indices). This is pi_A of I(r) (Definition 5).
Partition ColumnPartition(const Relation& r, std::size_t column);

/// Options for the FD search.
struct FdDiscoveryOptions {
  std::size_t max_lhs_size = 3;   ///< cap on |X| (lattice level bound).
  std::size_t max_results = 10000;
};

/// All minimal nontrivial FDs X -> A (single-attribute rhs, no proper
/// subset of X determining A) holding in `r`, found by a levelwise
/// lattice search over lhs candidates with partition products. Attribute
/// ids are r's scheme attributes (universe ids of `db`).
Result<std::vector<Fd>> DiscoverFds(const Database& db, const Relation& r,
                                    const FdDiscoveryOptions& options = {});

/// A discovered PD pattern over three scheme attributes.
struct PdPattern {
  enum class Kind : uint8_t {
    kProduct,   ///< C = A * B
    kSum,       ///< C = A + B
    kSumUpper,  ///< C <= A + B (strictly weaker than kSum)
  };
  Kind kind;
  RelAttrId c;
  RelAttrId a;
  RelAttrId b;

  std::string ToString(const Universe& universe) const;
};

/// Mines every triple (C; A, B), A < B, C distinct from both, for the
/// three PD patterns. kSumUpper is reported only when kSum does not hold
/// (it would be redundant), and the symmetric (A, B) order is normalized.
Result<std::vector<PdPattern>> DiscoverPdPatterns(const Database& db,
                                                  const Relation& r);

}  // namespace psem

#endif  // PSEM_DISCOVERY_DISCOVERY_H_
