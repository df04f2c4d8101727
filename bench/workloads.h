// Synthetic workload generators shared by the benchmark binaries. The
// paper has no empirical section, so these families are designed to
// exercise each theorem's claimed complexity shape (see DESIGN.md §2-3):
// deterministic, seeded, and scalable in one size parameter.

#ifndef PSEM_BENCH_WORKLOADS_H_
#define PSEM_BENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "psem.h"
#include "util/rng.h"

namespace psem {
namespace bench {

/// The one seed every benchmark workload derives from. Changing it (or
/// any generator below) invalidates comparisons against committed
/// BENCH_*.json artifacts — treat it as part of the benchmark contract.
inline constexpr uint64_t kBenchSeed = 0x9d5ecb852f1a7c03ull;

/// Deterministic per-stream generator: the same (seed, stream) pair
/// always yields the same workload, and distinct streams are decorrelated
/// splitmix64 states. Every benchmark harness seeds through this instead
/// of ad-hoc integer literals.
Rng MakeBenchRng(uint64_t stream);

/// Random partition expression over `num_attrs` attributes with exactly
/// `ops` operator nodes.
ExprId RandomExpr(ExprArena* arena, Rng* rng, int num_attrs, int ops);

/// Random PD theory: `num_pds` equations/inequalities with sides of up to
/// `max_ops` operators over `num_attrs` attributes.
std::vector<Pd> RandomTheory(ExprArena* arena, Rng* rng, int num_attrs,
                             int num_pds, int max_ops);

/// A batched implication query stream over the same attribute pool: a mix
/// of equations and inequalities whose subexpressions partially overlap a
/// theory drawn from the same (arena, num_attrs) — the workload shape of
/// BatchImplies and the incremental-closure path.
std::vector<Pd> RandomQueries(ExprArena* arena, Rng* rng, int num_attrs,
                              int num_queries, int max_ops);

/// Random FD set over attributes A0..A(num_attrs-1) (interned into the
/// universe).
std::vector<Fd> RandomFds(Universe* universe, Rng* rng, int num_attrs,
                          int num_fds, int max_lhs);

/// A fragmented database: `num_relations` binary relations over a shared
/// attribute pool, `rows_per_relation` random rows each, with
/// `symbols_per_attr` distinct symbols per attribute.
void RandomFragmentedDatabase(Database* db, Rng* rng, int num_attrs,
                              int num_relations, int rows_per_relation,
                              int symbols_per_attr);

/// The FPD chain A0 <= A1 <= ... <= A(n-1): ALG must derive the full
/// transitive closure; queries at distance n stress the arc rules.
std::vector<Pd> ChainTheory(ExprArena* arena, int n);

/// Deeply nested balanced expression of the given depth over k attributes,
/// alternating operators: stresses the Whitman deciders.
ExprId DeepExpr(ExprArena* arena, int depth, int num_attrs, bool start_sum);

/// CSV text of a `rows` x 12 table over A0..A11 with planted structure:
/// A0 -> A1 -> A2, A5 encodes the pair (A3, A4), A6 is the component id
/// shared by A7 and A8, A3 A9 -> A10, and A11 is noise. The shape of the
/// end-to-end csv-discover workload, for the CSV load path.
std::string PlantedCsv(Rng* rng, int rows);

}  // namespace bench
}  // namespace psem

#endif  // PSEM_BENCH_WORKLOADS_H_
