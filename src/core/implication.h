/// @file implication.h
/// @brief Algorithm ALG: PD implication as arc-digraph closure (Section 5.2), with incremental and batched service layers.

// PD implication — the uniform word problem for lattices (Section 5).
//
// Given a finite set E of PDs and a query PD delta, Theorem 8 shows the
// following are all equivalent: delta holds in every lattice satisfying E,
// in every finite such lattice, in every relation satisfying E, and in
// every finite such relation. Algorithm ALG (Section 5.2) decides this in
// polynomial time: build the set V of all subexpressions of E and the
// query, then close a digraph Gamma over V under seven arc rules; the
// query e <= e' is implied iff the arc (e, e') appears (Lemma 9.2).
//
// PdImplicationEngine implements ALG as a *semi-naive delta fixpoint*
// over bit-parallel rows (a straightforward implementation is O(n^4); the
// bitset representation divides the constant by 64, and the delta
// discipline removes the redundant rescans): every row keeps a new-arc
// frontier (delta_up_), a worklist tracks the rows whose frontier
// changed, and each round applies the seven arc rules only to those
// deltas — transitivity is joined against the delta, never the full
// relation, the column view is maintained incrementally from consumed
// deltas instead of per-pass transpose rebuilds, and an exact running arc
// counter replaces per-pass full-matrix count scans. When the frontier
// saturates, the serial engine switches to a cache-blocked 64-row-tile
// kernel for the dense endgame. This one serial engine is the only
// closure path; the engine starts no threads. Service-layer extensions on
// top (see docs/architecture.md for the full correctness arguments):
//
//  * Incremental closure. Lemma 9.2 identifies "arc (e, e') in the closed
//    Gamma" with the V-independent relation E |= e <= e'; hence arcs
//    between existing vertices never change when V grows. Prepare/Implies
//    with new subexpressions therefore extends the rows in place, seeds
//    the worklist from the dirty frontier alone (new vertices plus the
//    composite catch-up arcs), and re-closes from the previous closure as
//    a warm start instead of restarting from the seed arcs.
//
//  * The closure is the verdict store. By the same V-independence, a
//    closed up_ row already holds every verdict E gives over V, so a query
//    whose two sides are in V is answered by bit tests alone — no closure,
//    no context poll — and needs no invalidation for a fixed E. Only the
//    rest reach Prepare. BatchImplies probes the whole span first, then
//    interns the remainder and closes once for all of it.
//
// ProvenanceEngine (core/proof.h) applies the seven rules literally, arc
// by arc; it is both the explanation engine and the slow reference the
// differential tests check this engine against.
//
// Each ungoverned entry point (Implies, ImpliesLeq, BatchImplies, Prepare)
// forwards to its governed twin under ExecContext::Unbounded().
//
// Thread-compatibility: const methods (LeqInClosure, stats, ...) are safe
// to call concurrently once Prepare has returned; the mutating entry
// points (Implies, BatchImplies, Prepare) must be externally serialized.

#ifndef PSEM_CORE_IMPLICATION_H_
#define PSEM_CORE_IMPLICATION_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lattice/expr.h"
#include "util/bitset.h"
#include "util/exec_context.h"
#include "util/interner.h"
#include "util/status.h"

namespace psem {

/// Counters from the engine's closure computations.
struct AlgStats {
  std::size_t num_vertices = 0;  ///< |V|: distinct subexpressions.
  std::size_t num_arcs = 0;      ///< arcs in the final Gamma.
  std::size_t passes = 0;        ///< delta rounds of the last closure.

  /// Arcs added by each round of the most recent closure (index = round).
  std::vector<std::size_t> pass_arc_delta;

  /// Rounds of the last closure served by each kernel of the semi-naive
  /// sweep: the per-row worklist (sparse) vs the blocked 64-row tile
  /// kernel (dense).
  std::size_t sparse_rounds = 0;
  std::size_t dense_rounds = 0;

  // Wall-clock seconds per phase, accumulated over the engine's lifetime.
  double seed_seconds = 0.0;       ///< seeding reflexive + constraint arcs.
  double rules_seconds = 0.0;      ///< arc-rule sweeps (rules 2-5, 7).
  double transpose_seconds = 0.0;  ///< row/column transposes + snapshots.
  double closure_seconds = 0.0;    ///< total time inside ComputeClosure.

  std::size_t cold_closures = 0;         ///< closures computed from seed.
  std::size_t incremental_closures = 0;  ///< closures warm-started.

  /// Always 0: the engine keeps no verdict cache (the closed closure
  /// answers every query over V). Kept only because perfbench still reads
  /// them; they go when perfbench's counters move to one metrics surface.
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;

  /// Closures stopped early by a deadline, cancellation, budget, or
  /// injected fault. The partial arc matrix is kept as a sound warm
  /// start; the counters above reflect the partial progress.
  std::size_t aborted_closures = 0;
};

/// Tuning knobs for PdImplicationEngine.
struct EngineOptions {
  /// Sparse->dense switch: a delta round runs the blocked
  /// dense kernel when at least `dense_min_rows` rows are dirty AND the
  /// pending frontier averages at least |V|/`dense_inv_density` arcs per
  /// dirty row. The defaults keep chain-like closures (tiny per-row
  /// deltas) permanently sparse; tests lower dense_min_rows to force the
  /// dense kernel deterministically.
  std::size_t dense_min_rows = 64;
  std::size_t dense_inv_density = 8;
};

/// Decides E |= e = e' / e <= e' by Algorithm ALG. Queries may introduce
/// new subexpressions; the engine extends V and re-closes incrementally
/// when that happens.
class PdImplicationEngine {
 public:
  /// The engine keeps a pointer to `arena`; it must outlive the engine.
  PdImplicationEngine(const ExprArena* arena, std::vector<Pd> constraints,
                      EngineOptions options = {});

  /// E |=_lat query — equivalently |=_fin, |=_rel, |=_rel,fin (Theorem 8).
  bool Implies(const Pd& query);

  /// Governed variant: observes ctx's deadline, cancellation token, and
  /// arc/vertex budgets. A query whose sides are both in V is answered
  /// from a closed closure without polling ctx. Otherwise, on a trip it
  /// returns kResourceExhausted or kCancelled, keeps partial progress in
  /// stats(), and leaves the engine fully usable — re-asking with a fresh
  /// context resumes from the partial closure (a sound warm start) and
  /// yields the same verdict a cold engine would.
  Result<bool> Implies(const Pd& query, const ExecContext& ctx);

  /// E |= e <= e'.
  bool ImpliesLeq(ExprId e1, ExprId e2);
  Result<bool> ImpliesLeq(ExprId e1, ExprId e2, const ExecContext& ctx);

  /// Answers every query in `queries` against one shared closure: the
  /// queries a closed closure already answers are probed first, then the
  /// new subexpressions of the rest are added to V and the closure is
  /// (re)computed once. out[i] corresponds to queries[i].
  std::vector<bool> BatchImplies(std::span<const Pd> queries);

  /// Governed batch. Failures are per-query, not collective: a query
  /// whose subexpressions would blow the vertex budget gets its own
  /// kResourceExhausted while the rest of the batch is still answered;
  /// if the one shared closure trips mid-computation, the queries the
  /// closed closure answered up front keep their verdicts and only the
  /// closure-dependent remainder report the error.
  std::vector<Result<bool>> BatchImplies(std::span<const Pd> queries,
                                         const ExecContext& ctx);

  /// Ensures all of `exprs` are vertices of V and the closure is current.
  /// After this, LeqInClosure may be used for any pair of them.
  void Prepare(const std::vector<ExprId>& exprs);
  Status Prepare(const std::vector<ExprId>& exprs, const ExecContext& ctx);

  /// Grows E by one constraint without rebuilding the engine, and the
  /// only way a constraint enters E (the constructor and
  /// RestoreEngineState call it too). Sound as a warm start: every arc of
  /// the old closure is a consequence of the old E, hence of the larger E
  /// (arc rules are monotone in E). The new constraint's arcs are planted
  /// at the next closure, and until then no query is answered from the
  /// old closure: its verdicts hold only for the smaller E, and a larger E
  /// can flip "not implied" to "implied". Idempotent: re-adding a
  /// constraint already in E is a no-op.
  void AddConstraint(const Pd& pd);
  /// True iff `pd` is already in E (structural equality of interned ids):
  /// one probe of the constraint index.
  bool HasConstraint(const Pd& pd) const;
  /// The admission check a constraint passes before it may enter E (or a
  /// journal): false if it is already in E, true if it may enter, or the
  /// status that rejects it — ctx's vertex budget against its new
  /// subexpressions, then ctx.Check(). Mutates nothing.
  Result<bool> AdmitConstraint(const Pd& pd, const ExecContext& ctx) const;
  /// Governed variant: AdmitConstraint, then AddConstraint if admitted.
  Status AddConstraint(const Pd& pd, const ExecContext& ctx);

  /// Arc lookup in the computed closure. Both expressions must have been
  /// passed to Prepare (or appear in the constraints). Safe to call from
  /// several threads concurrently (pure read).
  bool LeqInClosure(ExprId e1, ExprId e2) const;

  const AlgStats& stats() const { return stats_; }
  const std::vector<Pd>& constraints() const { return constraints_; }
  const ExprArena& arena() const { return *arena_; }
  const EngineOptions& options() const { return options_; }
  /// V in insertion order (children before parents). Index i here is the
  /// row/column index of the arc matrices — the order a snapshot must
  /// reproduce for RestoreEngineState.
  const std::vector<ExprId>& vertices() const { return vertices_; }
  /// The row index of `e` in vertices(), or UINT32_MAX if `e` is not in V
  /// (an ExprId the arena interned after V last grew is not).
  uint32_t VertexIndexOf(ExprId e) const {
    return e < vertex_of_.size() ? vertex_of_[e] : kNoVertex;
  }

  /// A view (valid until the engine next changes) of the closed arc rows,
  /// one per vertex in vertices() order, each |V| bits wide: by Lemma 9.2
  /// all of what E implies over V, and all a snapshot holds.
  /// kFailedPrecondition unless the closure is current (Prepare first).
  Result<std::span<const DynamicBitset>> ClosedRows() const;

  /// Those rows detached from any process, with the exact arc count that
  /// restore audits against their popcount: RestoreEngineState's input.
  struct EngineClosureState {
    std::vector<DynamicBitset> up;
    uint64_t arc_count = 0;
  };

  /// Full restore for a freshly constructed engine (built with an empty
  /// constraint list), and the one entry point snapshot recovery needs.
  /// Verifies `state` first — one row per vertex of `vertex_order`, every
  /// row that wide, popcount == arc_count — then re-adds `vertex_order`
  /// verbatim (valid whenever the order is children-first, which
  /// vertices() guarantees, so the restored rows keep their indices,
  /// query-introduced vertices included), adds `constraints` to E through
  /// AddConstraint (so a repeated one is kept once), and installs the
  /// rows as a closed closure with every constraint planted, an empty
  /// frontier and down_ rebuilt as their transpose; stats() then report
  /// the restored |V| and arc count. kDataLoss on
  /// malformed input (the engine should then be discarded);
  /// kFailedPrecondition if the engine already has vertices.
  Status RestoreEngineState(const std::vector<ExprId>& vertex_order,
                            std::vector<Pd> constraints,
                            EngineClosureState state);

 private:
  // Interns every subexpression of `exprs` not yet in V, children first.
  void AddVertices(std::span<const ExprId> exprs);
  // The vertex budget, enforced BEFORE V is mutated: kResourceExhausted
  // if interning `exprs` would push |V| past ctx's cap.
  Status CheckVertexBudget(std::span<const ExprId> exprs,
                           const ExecContext& ctx) const;
  // All closure routines return OK, or the ctx/fail-point Status that
  // stopped them early. An early stop leaves closure_valid_ == false with
  // the partially propagated arc matrix, the unconsumed delta_up_ rows,
  // and the dirty-row worklist all in place — every written arc is a
  // sound consequence of E, every arc not yet propagated is still flagged
  // unconsumed, and the rules are monotone, so the next ComputeClosure
  // resumes from exactly that state and converges to the same least
  // fixpoint a cold engine reaches.
  Status ComputeClosure(const ExecContext& ctx);
  // Semi-naive delta fixpoint (rules 2-5 and 7): every round consumes the
  // per-row new-arc frontier (delta_up_) of the rows on the worklist and
  // derives only from those deltas; an arc is consumed exactly once over
  // the whole closure. The driver picks per round between the sparse
  // worklist kernel and the blocked 64-row-tile dense kernel on measured
  // frontier density. See docs/architecture.md.
  Status DeltaFixpointSerial(const ExecContext& ctx);
  Status SparseRound(const std::vector<uint32_t>& worklist,
                     const ExecContext& ctx, std::size_t* consumed_strider);
  Status DenseRound(const std::vector<uint32_t>& worklist,
                    const ExecContext& ctx);
  // Adds arc (i, m) unless present: sets the up_ bit, flags it
  // unconsumed in delta_up_, and bumps the exact arc counter.
  void TrySetArc(uint32_t i, uint32_t m);

  // The one place a query verdict is read: the bit tests of `query` when
  // the closure is closed and both sides are in V, nullopt otherwise.
  std::optional<bool> Probe(const Pd& query) const;

  const ExprArena* arena_;
  // E in insertion order, and its (lhs, rhs, is_equation) index.
  std::vector<Pd> constraints_;
  FlatIdIndex constraint_index_;
  // constraints_[0, planted_constraints_) have their arcs planted in the
  // delta state; the rest are planted by the next ComputeClosure's seed
  // phase (all of E on a cold closure). An abort before seeding leaves
  // the count as it was.
  std::size_t planted_constraints_ = 0;
  EngineOptions options_;

  static constexpr uint32_t kNoVertex = UINT32_MAX;
  std::vector<ExprId> vertices_;  // index -> ExprId
  // ExprId -> index, kNoVertex if not in V; grows only in AddVertices.
  std::vector<uint32_t> vertex_of_;
  // Children as vertex indices (kNoVertex for attribute leaves).
  std::vector<uint32_t> lhs_, rhs_;
  std::vector<ExprKind> kind_;
  // parents_[c] lists every composite m having c as a child, paired with
  // the other child (== c when both children coincide). Drives the
  // delta-driven parent rules: one probe per newly consumed arc instead
  // of a full sweep over all composites.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> parents_;

  // up_[i] bit j set <=> arc (i, j) in Gamma, i.e. i <=_E j.
  std::vector<DynamicBitset> up_;
  // Column view: down_[j] bit i set <=> arc (i, j) *consumed*. Maintained
  // incrementally — down_[j] gains bit i at the moment the delta bit
  // (i, j) is consumed, never by a full transpose rebuild — and serves as
  // the predecessor index for backward transitivity.
  std::vector<DynamicBitset> down_;
  // Semi-naive frontier: delta_up_[i] holds the arcs of row i not yet
  // propagated (always a subset of up_[i]); dirty_rows_ flags rows with a
  // nonempty frontier and doubles as the persistent worklist, so aborted
  // closures resume without reseeding.
  std::vector<DynamicBitset> delta_up_;
  DynamicBitset dirty_rows_;
  // Frontier bits that need no backward push (invariant (e) in
  // DeltaFixpointSerial): bits row p took from the sparse round's
  // backward join of some row s it had consumed an arc to. tag_[p] has
  // width 0 (no storage) unless row p holds such bits, is always a subset
  // of delta_up_[p], and is freed when row p drains, so a closed engine
  // holds no tag rows.
  std::vector<DynamicBitset> tag_;
  // Exact running arc count: bumped once per up_ bit transition by the
  // OrInPlaceCountNew kernels and TrySetArc; replaces the per-pass
  // full-matrix count scans. Stays exact across aborted closures.
  std::size_t arc_count_ = 0;
  bool closure_valid_ = false;
  // Number of rows whose seed arcs (reflexive + constraints, or the
  // incremental composite catch-up) have been planted in the delta state.
  // 0 means no closure has ever been started.
  std::size_t seeded_vertices_ = 0;
  AlgStats stats_;
};

}  // namespace psem

#endif  // PSEM_CORE_IMPLICATION_H_
