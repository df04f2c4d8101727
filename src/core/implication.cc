#include "core/implication.h"

#include <array>
#include <cassert>
#include <chrono>
#include <optional>
#include <utility>

#include "util/failpoint.h"

namespace psem {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// How often the governed sweeps poll the deadline/cancel state: every
// (kCheckStride) rows or delta consumptions. Budget comparisons against
// the running arc counter ride along with the same stride.
constexpr std::size_t kCheckStride = 256;

}  // namespace

PdImplicationEngine::PdImplicationEngine(const ExprArena* arena,
                                         std::vector<Pd> constraints,
                                         EngineOptions options)
    : arena_(arena), options_(options) {
  constraints_.reserve(constraints.size());
  constraint_index_.reserve(constraints.size());
  for (const Pd& pd : constraints) AddConstraint(pd);
}

Status PdImplicationEngine::CheckVertexBudget(std::span<const ExprId> exprs,
                                              const ExecContext& ctx) const {
  if (ctx.max_vertices() == 0) return Status::OK();
  auto in_v = [this](ExprId e) { return vertex_of_.contains(e); };
  std::size_t added = 0;
  for (ExprId e : arena_->PostOrder(exprs, in_v)) added += !in_v(e);
  return ctx.CheckVertices(vertices_.size() + added);
}

void PdImplicationEngine::AddVertices(std::span<const ExprId> exprs) {
  // Children first, so child indices exist; the walk stops at V.
  for (ExprId e : arena_->PostOrder(
           exprs, [this](ExprId x) { return vertex_of_.contains(x); })) {
    const uint32_t idx = static_cast<uint32_t>(vertices_.size());
    if (!vertex_of_.try_emplace(e, idx).second) continue;  // already in V
    vertices_.push_back(e);
    kind_.push_back(arena_->KindOf(e));
    parents_.emplace_back();
    if (arena_->IsAttr(e)) {
      lhs_.push_back(kNoVertex);
      rhs_.push_back(kNoVertex);
    } else {
      uint32_t l = vertex_of_.at(arena_->LhsOf(e));
      uint32_t r = vertex_of_.at(arena_->RhsOf(e));
      lhs_.push_back(l);
      rhs_.push_back(r);
      // Children are already interned (smaller indices), so the parent
      // index is complete before any closure ever runs.
      parents_[l].emplace_back(idx, r);
      if (r != l) parents_[r].emplace_back(idx, l);
    }
    closure_valid_ = false;
  }
}

void PdImplicationEngine::TrySetArc(uint32_t i, uint32_t m) {
  if (up_[i].Test(m)) return;
  up_[i].Set(m);
  delta_up_[i].Set(m);
  dirty_rows_.Set(i);
  ++arc_count_;
}

Status PdImplicationEngine::ComputeClosure(const ExecContext& ctx) {
  const auto closure_start = SteadyClock::now();
  const std::size_t n = vertices_.size();

  {
    Status st = ctx.CheckVertices(n);
    if (st.ok()) st = ctx.Check();
    if (st.ok() && PSEM_FAILPOINT(failpoints::kAlgSeedAlloc)) {
      st = Status::ResourceExhausted(
          "injected arc-matrix allocation failure (psem.alg.seed_alloc)");
    }
    if (!st.ok()) {
      ++stats_.aborted_closures;
      return st;  // nothing mutated yet; the engine state is untouched
    }
  }

  // Seed phase. Every seed arc is planted through the delta state: set in
  // up_, flagged unconsumed in delta_up_, row marked dirty — the fixpoint
  // below then treats seed arcs and derived arcs uniformly (each is
  // consumed exactly once). Cold: reflexive arcs everywhere. (Rule 1
  // seeds (A, A) for attributes only and derives reflexivity of
  // composites via rules 3/4, resp. 5/2; seeding all vertices is sound
  // and saves rounds.) Incremental: the previous closure is itself a set
  // of sound consequences of E (Lemma 9.2), so it is a valid warm start —
  // old rows are widened in place, only the new vertices get fresh
  // reflexive rows, and new composites over already-consumed children get
  // a one-time catch-up union of their children's rows/columns. Either
  // way the unplanted constraints then get their arcs. The worklist ends
  // up holding exactly the dirty frontier. A resumed closure
  // (seeded_vertices_ == n after an abort) skips the vertex seeding: the
  // unconsumed deltas and dirty rows persisted across the abort.
  const std::size_t old_n = seeded_vertices_;
  if (old_n < n) {
    for (std::size_t i = 0; i < old_n; ++i) {
      up_[i].Resize(n);
      delta_up_[i].Resize(n);
      down_[i].Resize(n);
      if (tag_[i].size() != 0) tag_[i].Resize(n);
    }
    up_.resize(n);
    delta_up_.resize(n);
    down_.resize(n);
    tag_.resize(n);
    dirty_rows_.Resize(n);
    for (std::size_t i = old_n; i < n; ++i) {
      up_[i] = DynamicBitset(n);
      delta_up_[i] = DynamicBitset(n);
      down_[i] = DynamicBitset(n);
      TrySetArc(static_cast<uint32_t>(i), static_cast<uint32_t>(i));
    }
    if (old_n == 0) {
      ++stats_.cold_closures;
    } else {
      // Composite catch-up: a new composite over old children missed the
      // children's already-consumed deltas, so it takes their current
      // rows (rules 3/2) and columns (rules 5/4) once, full width; any
      // later child growth reaches it through the parents_ index. New
      // children need no catch-up (their arcs are all still unconsumed)
      // but including them is sound and idempotent.
      for (std::size_t m = old_n; m < n; ++m) {
        if (lhs_[m] == kNoVertex) continue;
        const uint32_t l = lhs_[m], r = rhs_[m];
        const uint32_t mi = static_cast<uint32_t>(m);
        std::size_t added =
            kind_[m] == ExprKind::kProduct
                ? up_[m].OrInPlaceCountNew(up_[l], &delta_up_[m]) +
                      up_[m].OrInPlaceCountNew(up_[r], &delta_up_[m])
                : up_[m].OrAndInPlaceCountNew(up_[l], up_[r], &delta_up_[m]);
        if (added) {
          arc_count_ += added;
          dirty_rows_.Set(mi);
        }
        // Column side via the incrementally maintained predecessor
        // index: every consumed arc into a child lifts to the parent.
        if (kind_[m] == ExprKind::kSum) {
          down_[l].ForEach([&](std::size_t s) {
            TrySetArc(static_cast<uint32_t>(s), mi);
          });
          down_[r].ForEach([&](std::size_t s) {
            TrySetArc(static_cast<uint32_t>(s), mi);
          });
        } else {
          down_[l].ForEach([&](std::size_t s) {
            if (up_[s].Test(r)) TrySetArc(static_cast<uint32_t>(s), mi);
          });
        }
      }
      ++stats_.incremental_closures;
    }
    seeded_vertices_ = n;
  } else {
    // Abort resume over an unchanged V: a pure warm start.
    ++stats_.incremental_closures;
  }
  // Rule 6: each constraint not yet planted contributes its arc(s).
  for (; planted_constraints_ < constraints_.size(); ++planted_constraints_) {
    const Pd& pd = constraints_[planted_constraints_];
    uint32_t l = vertex_of_.at(pd.lhs);
    uint32_t r = vertex_of_.at(pd.rhs);
    TrySetArc(l, r);
    if (pd.is_equation) TrySetArc(r, l);
  }
  stats_.seed_seconds += SecondsSince(closure_start);

  stats_.pass_arc_delta.clear();
  stats_.passes = 0;
  stats_.sparse_rounds = 0;
  stats_.dense_rounds = 0;
  Status st = DeltaFixpointSerial(ctx);
  if (st.ok() && stats_.passes == 0) {
    // Nothing was dirty (e.g. an already-quiescent warm start): record
    // the trivial confirming round so trajectory stats stay populated.
    stats_.passes = 1;
    stats_.pass_arc_delta.push_back(0);
  }

  // Partial stats are filled in even when the fixpoint stopped early —
  // the partial-stats-on-timeout contract (docs/robustness.md). num_arcs
  // comes straight from the running counter; it is exact even mid-abort.
  stats_.num_vertices = n;
  stats_.num_arcs = arc_count_;
  stats_.closure_seconds += SecondsSince(closure_start);

  if (!st.ok()) {
    // closure_valid_ stays false while the partially propagated matrix,
    // the unconsumed deltas, and the dirty worklist all persist: the next
    // attempt resumes exactly where this one stopped (re-consuming a
    // half-processed frontier is idempotent), so the engine remains fully
    // usable and converges to the same least fixpoint a cold engine does.
    ++stats_.aborted_closures;
    return st;
  }
#ifndef NDEBUG
  // Audit the incremental counter against a one-off recount, and check
  // that a closed engine holds no tag rows (debug builds only — never a
  // per-pass scan).
  std::size_t audit = 0;
  for (const DynamicBitset& row : up_) audit += row.Count();
  assert(audit == arc_count_);
  for (const DynamicBitset& tags : tag_) assert(tags.size() == 0);
#endif
  closure_valid_ = true;
  return Status::OK();
}

// Serial semi-naive driver. Loop invariant, held at every round boundary
// and across aborts:
//   (a) delta_up_[i] ⊆ up_[i] and holds exactly row i's unconsumed arcs;
//   (b) dirty_rows_.Test(i) whenever delta_up_[i] is nonempty;
//   (c) down_[j] ∋ i exactly for the *consumed* arcs (i, j);
//   (d) arc_count_ == |up_| (each up_ bit transition bumped it once);
//   (e) tag_[p] ⊆ delta_up_[p], and every g ∈ tag_[p] has a witness s
//       with (p, s) and (s, g) both consumed: the sparse backward join
//       of row s tags what it leaves on the frontier of p ∈ down_[s].
// Every consequence of a consumed arc is either derived at consumption
// time (forward transitivity, per-arc column rules) or guaranteed to be
// derived when a future delta is consumed (backward transitivity through
// down_, parent pulls through parents_) — so when every frontier is
// empty, no rule instance is left unapplied and up_ is the least
// fixpoint of Lemma 9.2. A tagged arc (p, g) skips only its backward
// push: a predecessor q of p gets (q, s) from (q, p), (p, s), and then g
// from (q, s), (s, g) — two transitivity instances whose second arc was
// consumed before (p, g), so induction on that consumption order closes
// the argument (docs/architecture.md).
Status PdImplicationEngine::DeltaFixpointSerial(const ExecContext& ctx) {
  const std::size_t n = vertices_.size();
  const bool governed = !ctx.unbounded();
  std::vector<uint32_t> worklist;
  std::size_t consumed_strider = 0;
  while (dirty_rows_.Any()) {
    ++stats_.passes;
    if (PSEM_FAILPOINT(failpoints::kAlgSweep)) {
      return Status::Internal("injected closure-sweep fault (psem.alg.sweep)");
    }
    if (governed) {
      PSEM_RETURN_IF_ERROR(ctx.Check());
      PSEM_RETURN_IF_ERROR(ctx.CheckArcs(arc_count_));
    }
    const std::size_t round_start_arcs = arc_count_;
    worklist.clear();
    dirty_rows_.ForEach(
        [&](std::size_t i) { worklist.push_back(static_cast<uint32_t>(i)); });

    // Mode switch on measured frontier density, with an early exit once
    // the pending mass crosses the dense threshold.
    bool dense = false;
    if (worklist.size() >= options_.dense_min_rows) {
      const std::size_t threshold =
          worklist.size() * (n / std::max<std::size_t>(1, options_.dense_inv_density) + 1);
      std::size_t pending = 0;
      for (uint32_t i : worklist) {
        pending += delta_up_[i].Count();
        if (pending >= threshold) {
          dense = true;
          break;
        }
      }
    }
    Status st = dense ? DenseRound(worklist, ctx)
                      : SparseRound(worklist, ctx, &consumed_strider);
    if (dense) {
      ++stats_.dense_rounds;
    } else {
      ++stats_.sparse_rounds;
    }
    if (!st.ok()) return st;  // the round restored the unconsumed frontier
    stats_.pass_arc_delta.push_back(arc_count_ - round_start_arcs);
  }
  return Status::OK();
}

// One sparse round: Gauss-Seidel over the worklist rows, draining each
// row's frontier in place (bits derived mid-row are consumed in the same
// visit). Per consumed arc (i, j):
//   scatter     — down_[j] gains i (incremental transpose maintenance);
//   rule 7 fwd  — up_[i] |= up_[j], the new-arc side of the semi-naive
//                 join (word-parallel, skips j's empty words);
//   rules 5/4   — parents of j probe the single bit (i, parent).
// After the row drains, with S = everything consumed from it this visit:
//   rule 7 bwd  — every predecessor p ∈ down_[i] takes S minus the bits
//                 tagged in row i (invariant (e)), over S's occupied word
//                 span, and tags what it leaves on p's frontier;
//   rules 3/2   — every parent of i takes S (product) or S ∩ sibling row
//                 (sum), word-parallel over the same span.
Status PdImplicationEngine::SparseRound(const std::vector<uint32_t>& worklist,
                                        const ExecContext& ctx,
                                        std::size_t* consumed_strider) {
  const std::size_t n = vertices_.size();
  const bool governed = !ctx.unbounded();
  const auto rules_start = SteadyClock::now();
  DynamicBitset scratch(n);
  DynamicBitset gained(n);
  DynamicBitset pushed(n);
  // Descending index order: AddVertices interns children before parents and
  // theories tend to be written low-to-high, so high rows settle first
  // and most consumptions below hit the settled-source fast path.
  for (std::size_t w = worklist.size(); w-- > 0;) {
    const uint32_t i = worklist[w];
    if (delta_up_[i].None()) {  // drained by an earlier visit this round
      dirty_rows_.Reset(i);
      continue;
    }
    scratch.Clear();
    std::size_t j;
    while ((j = delta_up_[i].NextSetBit(0)) < n) {
      delta_up_[i].Reset(j);
      scratch.Set(j);
      down_[j].Set(i);
      if (j != i) {
        if (!dirty_rows_.Test(j)) {
          // Settled source: every arc of row j has been consumed, so
          // up_[j] is transitively absorbed — one OR brings in all of it,
          // and the gained bits can be marked consumed on the spot
          // (scatter + per-arc column rules) without their own forward
          // joins: anything row g learns later reaches row i through the
          // down_[g] backward join we are registering here.
          gained.Clear();
          std::size_t added = up_[i].OrInPlaceCountNew(up_[j], &gained);
          if (added) {
            arc_count_ += added;
            scratch.UnionWith(gained);
            gained.ForEach([&](std::size_t g) {
              down_[g].Set(i);
              for (const auto& [m, o] : parents_[g]) {
                if (kind_[m] == ExprKind::kSum || up_[i].Test(o)) {
                  TrySetArc(i, m);
                }
              }
            });
          }
        } else {
          arc_count_ += up_[i].OrInPlaceCountNew(up_[j], &delta_up_[i]);
        }
      }
      for (const auto& [m, o] : parents_[j]) {
        if (kind_[m] == ExprKind::kSum || up_[i].Test(o)) TrySetArc(i, m);
      }
      if (governed && (++*consumed_strider % kCheckStride) == 0) {
        Status st = ctx.Check();
        if (st.ok()) st = ctx.CheckArcs(arc_count_);
        if (!st.ok()) {
          // Put the already-consumed bits back on the frontier: their
          // per-arc effects are idempotent, and the row-level pushes
          // below have not run for them yet — re-consuming on resume is
          // sound and completes the round. Rows after this one keep
          // their dirty flags (only reset after a full drain).
          delta_up_[i].UnionWith(scratch);
          stats_.rules_seconds += SecondsSince(rules_start);
          return st;
        }
      }
    }
    // Rule 7, delta on the right: predecessors absorb the drained bits,
    // minus the tagged ones (invariant (e)); what they take is tagged in
    // turn. A tag row lives only while its row holds tagged bits.
    const auto [first_word, end_word] = scratch.WordSpan();
    const DynamicBitset* push = &scratch;
    if (tag_[i].size() != 0) {
      pushed = scratch;
      pushed.SubtractWith(tag_[i]);
      push = &pushed;
      tag_[i] = DynamicBitset();
    }
    if (push == &scratch || push->Any()) {
      for (std::size_t p = down_[i].NextSetBit(0); p < n;
           p = down_[i].NextSetBit(p + 1)) {
        if (p == i) continue;
        std::size_t added = up_[p].OrInPlaceCountNew(
            *push, first_word, end_word, &delta_up_[p], &tag_[p]);
        if (added) {
          arc_count_ += added;
          dirty_rows_.Set(static_cast<uint32_t>(p));
        }
      }
    }
    // Rules 3/2: parents absorb the drained bits.
    for (const auto& [m, o] : parents_[i]) {
      std::size_t added =
          kind_[m] == ExprKind::kProduct
              ? up_[m].OrInPlaceCountNew(scratch, first_word, end_word,
                                         &delta_up_[m])
              : up_[m].OrAndInPlaceCountNew(scratch, up_[o], first_word,
                                            end_word, &delta_up_[m]);
      if (added) {
        arc_count_ += added;
        dirty_rows_.Set(m);
      }
    }
    dirty_rows_.Reset(i);
  }
  stats_.rules_seconds += SecondsSince(rules_start);
  return Status::OK();
}

// One dense round: the whole frontier is frozen into the round-local
// `carry` rows and consumed by phase — scatter + per-arc column rules,
// then the blocked forward join (64-row destination tiles walking the
// carry words in lockstep, so the up_[j] source rows stay cache-hot
// across a tile), then backward transitivity and the parent pulls. New
// arcs land in delta_up_ and feed the next round (Jacobi across rounds).
// An abort restores every frozen carry into delta_up_ and redoes the
// round on resume; all per-arc effects are idempotent and the arc
// counter only counts transitions, so the redo is exact.
Status PdImplicationEngine::DenseRound(const std::vector<uint32_t>& worklist,
                                       const ExecContext& ctx) {
  const std::size_t n = vertices_.size();
  const std::size_t words = (n + 63) / 64;
  const bool governed = !ctx.unbounded();
  // Only worklist rows get a carry; it is freed when the round returns,
  // so a closed engine holds no dense-round scratch.
  std::vector<DynamicBitset> carry(n);
  DynamicBitset carry_mask(n);
  for (uint32_t i : worklist) {
    carry[i] = std::exchange(delta_up_[i], DynamicBitset(n));
    // A dense round pushes every carried bit backward, so tags are moot.
    tag_[i] = DynamicBitset();
    if (carry[i].Any()) carry_mask.Set(i);
    dirty_rows_.Reset(i);
  }
  auto restore = [&] {
    for (uint32_t i : worklist) {
      delta_up_[i].UnionWith(carry[i]);
      dirty_rows_.Set(i);
    }
  };
  auto governed_check = [&]() -> Status {
    Status st = ctx.Check();
    if (st.ok()) st = ctx.CheckArcs(arc_count_);
    return st;
  };

  // Incremental transpose: the frozen frontier goes into down_ through
  // the blocked 64x64 transpose kernel (rows off the worklist have no
  // carry and cost only their tiles' gather).
  auto transpose_start = SteadyClock::now();
  if (governed) {
    Status st = governed_check();
    if (!st.ok()) {
      restore();
      stats_.transpose_seconds += SecondsSince(transpose_start);
      return st;
    }
  }
  DynamicBitset::OrTransposeInto(carry, &down_);
  stats_.transpose_seconds += SecondsSince(transpose_start);

  // Rules 5/4 per frozen arc: parents of j probe the single bit (i, m).
  auto rules_start = SteadyClock::now();
  std::size_t strider = 0;
  for (uint32_t i : worklist) {
    if (governed && (++strider % kCheckStride) == 0) {
      Status st = governed_check();
      if (!st.ok()) {
        restore();
        stats_.rules_seconds += SecondsSince(rules_start);
        return st;
      }
    }
    carry[i].ForEach([&](std::size_t j) {
      for (const auto& [m, o] : parents_[j]) {
        if (kind_[m] == ExprKind::kSum || up_[i].Test(o)) TrySetArc(i, m);
      }
    });
  }

  // Blocked forward join (rule 7, delta on the left). Each destination
  // tile accumulates raw ORs into per-row scratch accumulators — the
  // branch-free OrWith kernel — and pays for counting once per row when
  // the accumulator merges into up_. Sources are the live up_ rows, so
  // later tiles see everything earlier tiles merged.
  constexpr std::size_t kTileRows = 64;
  std::array<DynamicBitset, kTileRows> acc;
  for (std::size_t t0 = 0; t0 < worklist.size(); t0 += kTileRows) {
    const std::size_t t1 = std::min(t0 + kTileRows, worklist.size());
    if (governed) {
      Status st = governed_check();
      if (!st.ok()) {
        restore();
        stats_.rules_seconds += SecondsSince(rules_start);
        return st;
      }
    }
    for (std::size_t t = t0; t < t1; ++t) {
      if (acc[t - t0].size() != n) {
        acc[t - t0] = DynamicBitset(n);
      } else {
        acc[t - t0].Clear();
      }
    }
    for (std::size_t wk = 0; wk < words; ++wk) {
      for (std::size_t t = t0; t < t1; ++t) {
        const uint32_t i = worklist[t];
        uint64_t w = carry[i].word(wk);
        while (w) {
          const std::size_t j =
              (wk << 6) + static_cast<std::size_t>(__builtin_ctzll(w));
          w &= w - 1;
          if (j != i) acc[t - t0].OrWith(up_[j]);
        }
      }
    }
    for (std::size_t t = t0; t < t1; ++t) {
      const uint32_t i = worklist[t];
      arc_count_ += up_[i].OrInPlaceCountNew(acc[t - t0], &delta_up_[i]);
    }
  }

  // Backward join (rule 7, delta on the right), destination-major: row p
  // pulls the carry of every frozen row it reaches (cand = up_[p] ∩
  // carry_mask — a superset of the consumed arcs, which is sound: any
  // derived arc (p, i) supports transitivity). Raw ORs into one scratch
  // row, one counted merge per destination.
  DynamicBitset cand(n);
  DynamicBitset scratch(n);
  strider = 0;
  for (std::size_t p = 0; p < n; ++p) {
    cand = carry_mask;
    cand.IntersectWith(up_[p]);
    cand.Reset(p);
    // Frozen sources this row consumed via the forward join already
    // delivered up_ ⊇ carry there — skip them. (Only rows on this
    // round's worklist have a carry to subtract.)
    if (carry_mask.Test(p)) cand.SubtractWith(carry[p]);
    if (cand.None()) continue;
    if (governed && (++strider % kCheckStride) == 0) {
      Status st = governed_check();
      if (!st.ok()) {
        restore();
        stats_.rules_seconds += SecondsSince(rules_start);
        return st;
      }
    }
    scratch.Clear();
    cand.ForEach([&](std::size_t i) { scratch.OrWith(carry[i]); });
    std::size_t added = up_[p].OrInPlaceCountNew(scratch, &delta_up_[p]);
    if (added) {
      arc_count_ += added;
      dirty_rows_.Set(static_cast<uint32_t>(p));
    }
  }

  // Rules 3/2: parents pull the frozen carries.
  for (uint32_t i : worklist) {
    for (const auto& [m, o] : parents_[i]) {
      std::size_t added =
          kind_[m] == ExprKind::kProduct
              ? up_[m].OrInPlaceCountNew(carry[i], &delta_up_[m])
              : up_[m].OrAndInPlaceCountNew(carry[i], up_[o], &delta_up_[m]);
      if (added) {
        arc_count_ += added;
        dirty_rows_.Set(m);
      }
    }
  }
  stats_.rules_seconds += SecondsSince(rules_start);

  // Frontier fully consumed: flag rows that gained.
  transpose_start = SteadyClock::now();
  for (uint32_t i : worklist) {
    if (delta_up_[i].Any()) dirty_rows_.Set(i);
  }
  stats_.transpose_seconds += SecondsSince(transpose_start);
  return Status::OK();
}

// The ungoverned overloads forward to their governed twins. Unbounded +
// no armed fail point cannot trip; if a test armed a closure fail point
// and then called an ungoverned path, surface it loudly rather than
// silently serving a stale closure.
void PdImplicationEngine::Prepare(const std::vector<ExprId>& exprs) {
  Status st = Prepare(exprs, ExecContext::Unbounded());
  PSEM_CHECK(st.ok(), "ungoverned closure failed: " + st.ToString());
}

Status PdImplicationEngine::Prepare(const std::vector<ExprId>& exprs,
                                    const ExecContext& ctx) {
  // A vertex budget trip rejects the whole call, leaving the engine
  // exactly as it was.
  PSEM_RETURN_IF_ERROR(CheckVertexBudget(exprs, ctx));
  PSEM_RETURN_IF_ERROR(ctx.Check());
  AddVertices(exprs);
  if (!closure_valid_) PSEM_RETURN_IF_ERROR(ComputeClosure(ctx));
  return Status::OK();
}

bool PdImplicationEngine::HasConstraint(const Pd& pd) const {
  return constraint_index_.contains(pd);
}

void PdImplicationEngine::AddConstraint(const Pd& pd) {
  if (!constraint_index_.insert(pd).second) return;
  AddVertices(std::array{pd.lhs, pd.rhs});
  constraints_.push_back(pd);
  closure_valid_ = false;
}

Result<bool> PdImplicationEngine::AdmitConstraint(
    const Pd& pd, const ExecContext& ctx) const {
  if (HasConstraint(pd)) return false;
  PSEM_RETURN_IF_ERROR(CheckVertexBudget(std::array{pd.lhs, pd.rhs}, ctx));
  PSEM_RETURN_IF_ERROR(ctx.Check());
  return true;
}

Status PdImplicationEngine::AddConstraint(const Pd& pd,
                                          const ExecContext& ctx) {
  PSEM_ASSIGN_OR_RETURN(bool admitted, AdmitConstraint(pd, ctx));
  if (admitted) AddConstraint(pd);
  return Status::OK();
}

Result<std::span<const DynamicBitset>> PdImplicationEngine::ClosedRows()
    const {
  if (!closure_valid_) {
    return Status::FailedPrecondition(
        "closure is not closed; Prepare the engine before exporting it");
  }
  return std::span<const DynamicBitset>(up_);
}

Status PdImplicationEngine::RestoreEngineState(
    const std::vector<ExprId>& vertex_order, std::vector<Pd> constraints,
    EngineClosureState state) {
  if (!vertices_.empty() || seeded_vertices_ != 0) {
    return Status::FailedPrecondition(
        "RestoreEngineState requires a freshly constructed engine");
  }
  // Validate before installing anything: a snapshot is an untrusted
  // artifact (its checksums prove the bytes, not the semantics).
  const std::size_t n = vertex_order.size();
  if (state.up.size() != n) {
    return Status::DataLoss("closure state row count mismatch");
  }
  uint64_t audit = 0;
  for (const DynamicBitset& row : state.up) {
    if (row.size() != n) {
      return Status::DataLoss("closure state row width mismatch");
    }
    audit += row.Count();
  }
  if (audit != state.arc_count) {
    return Status::DataLoss("closure state arc count mismatch");
  }
  // Interning keeps the order exactly when it is children-first and
  // duplicate-free; anything else is a malformed snapshot.
  AddVertices(vertex_order);
  if (vertices_ != vertex_order) {
    return Status::DataLoss("snapshot vertex order is not children-first");
  }
  for (const Pd& pd : constraints) {
    if (!vertex_of_.count(pd.lhs) || !vertex_of_.count(pd.rhs)) {
      return Status::DataLoss("snapshot constraint over unknown vertex");
    }
    AddConstraint(pd);
  }
  // The restored rows already hold every constraint's arcs.
  planted_constraints_ = constraints_.size();
  up_ = std::move(state.up);
  arc_count_ = state.arc_count;
  // Closed: every arc is consumed, so the frontier and worklist are empty
  // and down_ is the full transpose of up_.
  delta_up_.assign(n, DynamicBitset(n));
  dirty_rows_ = DynamicBitset(n);
  tag_.assign(n, DynamicBitset());
  down_.assign(n, DynamicBitset(n));
  DynamicBitset::OrTransposeInto(up_, &down_);
  seeded_vertices_ = n;
  closure_valid_ = true;
  stats_.num_vertices = n;
  stats_.num_arcs = arc_count_;
  return Status::OK();
}

bool PdImplicationEngine::LeqInClosure(ExprId e1, ExprId e2) const {
  assert(closure_valid_);
  auto i = vertex_of_.find(e1);
  auto j = vertex_of_.find(e2);
  assert(i != vertex_of_.end() && j != vertex_of_.end());
  return up_[i->second].Test(j->second);
}

std::optional<bool> PdImplicationEngine::Probe(const Pd& query) const {
  if (!closure_valid_) return std::nullopt;
  auto i = vertex_of_.find(query.lhs);
  auto j = vertex_of_.find(query.rhs);
  if (i == vertex_of_.end() || j == vertex_of_.end()) return std::nullopt;
  if (!up_[i->second].Test(j->second)) return false;
  return !query.is_equation || up_[j->second].Test(i->second);
}

bool PdImplicationEngine::ImpliesLeq(ExprId e1, ExprId e2) {
  Result<bool> verdict = ImpliesLeq(e1, e2, ExecContext::Unbounded());
  PSEM_CHECK(verdict.ok(), "ungoverned query failed: " +
                               verdict.status().ToString());
  return *verdict;
}

Result<bool> PdImplicationEngine::ImpliesLeq(ExprId e1, ExprId e2,
                                             const ExecContext& ctx) {
  return Implies(Pd::Leq(e1, e2), ctx);
}

bool PdImplicationEngine::Implies(const Pd& query) {
  Result<bool> verdict = Implies(query, ExecContext::Unbounded());
  PSEM_CHECK(verdict.ok(), "ungoverned query failed: " +
                               verdict.status().ToString());
  return *verdict;
}

Result<bool> PdImplicationEngine::Implies(const Pd& query,
                                          const ExecContext& ctx) {
  // Verdicts are V-independent (Lemma 9.2): a closed closure answers any
  // query over V without extending V, re-closing or polling ctx.
  if (std::optional<bool> verdict = Probe(query)) return *verdict;
  PSEM_RETURN_IF_ERROR(Prepare({query.lhs, query.rhs}, ctx));
  return *Probe(query);
}

std::vector<bool> PdImplicationEngine::BatchImplies(
    std::span<const Pd> queries) {
  std::vector<Result<bool>> verdicts =
      BatchImplies(queries, ExecContext::Unbounded());
  std::vector<bool> out;
  out.reserve(verdicts.size());
  for (const Result<bool>& verdict : verdicts) {
    PSEM_CHECK(verdict.ok(), "ungoverned query failed: " +
                                 verdict.status().ToString());
    out.push_back(*verdict);
  }
  return out;
}

std::vector<Result<bool>> PdImplicationEngine::BatchImplies(
    std::span<const Pd> queries, const ExecContext& ctx) {
  // Result<bool> has no default constructor, so the slots are staged in
  // optionals and unwrapped at the end.
  std::vector<std::optional<Result<bool>>> slots(queries.size());
  // Pass 1: probe every query while the closure is still closed; the
  // first interning below would reopen it.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (std::optional<bool> verdict = Probe(queries[i])) {
      slots[i] = Result<bool>(*verdict);
    } else {
      pending.push_back(i);
    }
  }
  // Pass 2: failures are per-query. Each remaining query is pre-checked
  // against the vertex budget BEFORE its subexpressions are interned, so
  // one oversized query gets its own error and leaves the rest of the
  // batch (and the engine) untouched. An accepted query is interned at
  // once, so the next query's budget check already counts its vertices.
  std::vector<std::size_t> interned;
  for (std::size_t i : pending) {
    const Pd& q = queries[i];
    Status st = CheckVertexBudget(std::array{q.lhs, q.rhs}, ctx);
    if (!st.ok()) {
      slots[i] = Result<bool>(st);
      continue;
    }
    AddVertices(std::array{q.lhs, q.rhs});
    interned.push_back(i);
  }
  // Pass 3: one shared (incremental) closure, then bit tests. A closure
  // failure is reported by the closure-dependent remainder only; the
  // verdicts of pass 1 are kept.
  if (!interned.empty()) {
    Status st = closure_valid_ ? Status::OK() : ComputeClosure(ctx);
    for (std::size_t i : interned) {
      slots[i] = st.ok() ? Result<bool>(*Probe(queries[i])) : Result<bool>(st);
    }
  }
  std::vector<Result<bool>> out;
  out.reserve(slots.size());
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace psem
