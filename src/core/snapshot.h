/// @file snapshot.h
/// @brief Durable closure snapshots + write-ahead journal: tiered crash
/// recovery for the PD-implication engine.

// Durability for Algorithm ALG's closure state, layered on the
// util/durable_file.h primitives. Two artifacts:
//
//  * Snapshot — one checksummed chunk container holding everything needed
//    to rebuild a PdImplicationEngine in a fresh process: the attribute
//    name table, V serialized structurally (kind + child indices, valid
//    across processes where raw ExprIds are not), E as vertex-index
//    pairs, and the engine's closed closure (arc rows plus the exact arc
//    count). Only a closed closure is ever written: Checkpoint closes the
//    engine first. Written atomically, so a crash during checkpointing
//    never damages the previous snapshot.
//
//  * Journal — a write-ahead log of the PD constraints accepted after the
//    base theory, one record per PD, fsynced before the constraint is
//    applied. The journal is cumulative (never truncated at checkpoints):
//    base theory + journal alone reconstruct the full E, which is what
//    makes snapshot corruption survivable rather than fatal.
//
// Recovery is tiered, worst tier wins (RecoveryTier):
//
//    kColdStart            no snapshot to restore; normal cold build.
//    kCleanRestore         snapshot verified and restored; journal clean.
//    kJournalTailTruncated a torn journal tail (crash mid-append) was
//                          dropped at the last valid record boundary.
//    kColdRecompute        the snapshot existed but failed verification
//                          (checksum, format, or theory-fingerprint
//                          mismatch); it was ignored and the closure is
//                          recomputed from base theory + journal.
//
// A corrupt snapshot therefore degrades throughput, never correctness; a
// corrupt journal *header* is a hard kDataLoss (the journal is the source
// of truth — silently dropping it would lose accepted constraints).
// Replay goes through the engine's admission check and incremental
// AddConstraint path and is idempotent (one hash probe per record), so
// records also covered by the snapshot are no-ops.
//
// Thread-compatibility: DurablePdEngine is single-writer; serialize all
// calls externally (same contract as the underlying engine's mutators).

#ifndef PSEM_CORE_SNAPSHOT_H_
#define PSEM_CORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/implication.h"
#include "lattice/expr.h"
#include "util/durable_file.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace psem {

/// Which recovery path actually ran, ordered best to worst.
enum class RecoveryTier {
  kColdStart = 0,             ///< nothing durable to restore.
  kCleanRestore = 1,          ///< snapshot restored, journal intact.
  kJournalTailTruncated = 2,  ///< torn journal tail dropped, rest replayed.
  kColdRecompute = 3,         ///< snapshot rejected; rebuilt from journal.
};

/// Stable name for logs and the CLI recovery summary line.
const char* RecoveryTierName(RecoveryTier tier);

/// What recovery found and did. Every field is populated by
/// DurablePdEngine::Recover regardless of tier.
struct RecoveryStats {
  RecoveryTier tier = RecoveryTier::kColdStart;
  bool snapshot_present = false;   ///< a snapshot file existed.
  bool snapshot_restored = false;  ///< ... and passed verification.
  std::string snapshot_error;      ///< why it was rejected, if it was.
  std::size_t journal_records = 0;      ///< valid records found.
  std::size_t journal_replayed_new = 0; ///< records not already in the
                                        ///< restored snapshot's E.
  bool journal_tail_truncated = false;
  uint64_t journal_bytes_dropped = 0;
  std::size_t restored_vertices = 0;  ///< |V| carried by the snapshot.
  uint64_t restored_arcs = 0;         ///< arcs carried by the snapshot.
};

/// Order-sensitive fingerprint of a theory (CRC32C over the canonical
/// rendering of each PD). A snapshot records the fingerprint of the BASE
/// theory it grew from; recovery rejects a snapshot whose base differs
/// from the one being recovered (tier kColdRecompute).
uint64_t TheoryFingerprint(const ExprArena& arena, const std::vector<Pd>& pds);

/// A snapshot decoded back into live arena objects.
struct DecodedSnapshot {
  uint64_t base_fingerprint = 0;
  std::vector<ExprId> vertices;  ///< children-first, the engine row order.
  std::vector<Pd> constraints;   ///< full E at checkpoint time.
  PdImplicationEngine::EngineClosureState state;
};

/// Serializes an engine (plus the fingerprint of its base theory) into
/// chunk-container bytes. kFailedPrecondition unless the engine's closure
/// is current (Prepare it first).
Result<std::string> EncodeSnapshot(const PdImplicationEngine& engine,
                                   uint64_t base_fingerprint);

/// Parses + semantically validates snapshot bytes, interning expressions
/// into `arena` (hash-consing makes that idempotent). kDataLoss on any
/// framing/checksum/consistency violation; kInvalidArgument when a
/// DurableLimits bound is exceeded. Untrusted-input hardened: every
/// index is bounds-checked and bitset tail bits must be clean.
Result<DecodedSnapshot> DecodeSnapshot(std::string_view bytes,
                                       ExprArena* arena,
                                       const DurableLimits& limits = {});

/// Knobs for the durable engine.
struct DurabilityOptions {
  std::string snapshot_path;  ///< empty = never snapshot.
  std::string journal_path;   ///< empty = no write-ahead journal.
  /// Auto-checkpoint after this many newly accepted constraints
  /// (0 = only explicit Checkpoint calls).
  std::size_t checkpoint_every = 32;
  DurableLimits limits;
  EngineOptions engine;
};

/// A PdImplicationEngine wrapped in snapshot + journal durability.
///
/// Write path: AddPd admits the constraint (dedupe, vertex budget, ctx)
/// and journals it (fsync) BEFORE applying it — an acknowledged
/// constraint survives any later crash, a rejected one leaves no record —
/// then applies it through the engine's incremental path and, every
/// checkpoint_every acceptances, rewrites the snapshot. Checkpoint
/// failures (a closure trip, deadline, injected I/O fault, full disk)
/// never fail AddPd: the journal already holds the record, so durability
/// is preserved and only the next recovery's warm-start quality degrades;
/// the error is retained in last_checkpoint_status().
///
/// With neither snapshot_path nor journal_path set it is a plain
/// in-memory engine behind the same interface.
class DurablePdEngine {
 public:
  /// Recovers (or cold-starts) an engine for `base` + whatever the
  /// durable artifacts hold. See the tier table above. `arena` must
  /// outlive the result.
  static Result<DurablePdEngine> Recover(
      ExprArena* arena, std::vector<Pd> base, DurabilityOptions options,
      const ExecContext& ctx = ExecContext::Unbounded());

  /// Durably accepts one constraint (admission -> journal -> engine ->
  /// maybe checkpoint). The engine's AdmitConstraint runs first:
  /// duplicates of constraints already in E return OK, and a vertex-budget
  /// or ctx trip returns its status, both without journaling. kIoError if
  /// the journal append fails — the constraint is then NOT applied and
  /// may be retried.
  Status AddPd(const Pd& pd, const ExecContext& ctx);

  /// Closes the engine under `ctx` (Prepare), then writes a snapshot of
  /// the closed closure. If the closure trips, returns that status and
  /// writes nothing, so the previous snapshot stays byte-identical.
  /// kFailedPrecondition when no snapshot_path is configured.
  Status Checkpoint(const ExecContext& ctx);

  PdImplicationEngine& engine() { return *engine_; }
  const PdImplicationEngine& engine() const { return *engine_; }
  const RecoveryStats& recovery() const { return recovery_; }
  /// Outcome of the most recent automatic or explicit checkpoint.
  const Status& last_checkpoint_status() const {
    return last_checkpoint_status_;
  }

 private:
  DurablePdEngine() = default;

  ExprArena* arena_ = nullptr;
  DurabilityOptions options_;
  uint64_t base_fingerprint_ = 0;
  std::unique_ptr<PdImplicationEngine> engine_;
  std::optional<Journal> journal_;
  RecoveryStats recovery_;
  std::size_t since_checkpoint_ = 0;
  Status last_checkpoint_status_;
};

}  // namespace psem

#endif  // PSEM_CORE_SNAPSHOT_H_
