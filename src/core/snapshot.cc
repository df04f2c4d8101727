#include "core/snapshot.h"

#include <span>
#include <utility>

namespace psem {

namespace {

constexpr uint32_t kSnapshotVersion = 2;

constexpr uint32_t kTagMeta = ChunkTag("META");
constexpr uint32_t kTagAttrs = ChunkTag("ATTR");
constexpr uint32_t kTagVertices = ChunkTag("VERT");
constexpr uint32_t kTagConstraints = ChunkTag("CONS");
constexpr uint32_t kTagRows = ChunkTag("ROWS");

constexpr std::size_t kMaxAttrNameLen = 4096;

constexpr uint8_t kConsEquation = 1;  // the one CONS flag bit

std::size_t WordsFor(std::size_t bits) { return (bits + 63) / 64; }

}  // namespace

const char* RecoveryTierName(RecoveryTier tier) {
  switch (tier) {
    case RecoveryTier::kColdStart:
      return "cold-start";
    case RecoveryTier::kCleanRestore:
      return "clean-restore";
    case RecoveryTier::kJournalTailTruncated:
      return "journal-tail-truncated";
    case RecoveryTier::kColdRecompute:
      return "cold-recompute";
  }
  return "unknown";
}

uint64_t TheoryFingerprint(const ExprArena& arena,
                           const std::vector<Pd>& pds) {
  uint32_t crc = 0;
  uint64_t total = 0;
  for (const Pd& pd : pds) {
    std::string line = arena.ToString(pd);
    line.push_back('\n');  // delimit, so ["a","b"] != ["ab"]
    crc = Crc32c(line.data(), line.size(), crc);
    total += line.size();
  }
  return (total << 32) ^ crc;
}

Result<std::string> EncodeSnapshot(const PdImplicationEngine& engine,
                                   uint64_t base_fingerprint) {
  PSEM_ASSIGN_OR_RETURN(std::span<const DynamicBitset> closed,
                        engine.ClosedRows());
  const ExprArena& arena = engine.arena();
  const std::vector<ExprId>& vertices = engine.vertices();

  // ATTR + VERT: V serialized structurally. ExprIds are arena-local and
  // meaningless in another process; kind + name/child-indices are not.
  std::vector<AttrId> attr_order;
  // AttrId -> its index in attr_order + 1; 0 until it is listed.
  std::vector<uint32_t> attr_local(arena.num_attrs(), 0);
  ByteWriter vert;
  vert.U32(static_cast<uint32_t>(vertices.size()));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    ExprId e = vertices[i];
    vert.U8(static_cast<uint8_t>(arena.KindOf(e)));
    if (arena.IsAttr(e)) {
      AttrId a = arena.AttrOf(e);
      if (attr_local[a] == 0) {
        attr_order.push_back(a);
        attr_local[a] = static_cast<uint32_t>(attr_order.size());
      }
      vert.U32(attr_local[a] - 1);
    } else {
      uint32_t l = engine.VertexIndexOf(arena.LhsOf(e));
      uint32_t r = engine.VertexIndexOf(arena.RhsOf(e));
      PSEM_CHECK(l < i && r < i, "engine vertex order not children-first");
      vert.U32(l);
      vert.U32(r);
    }
  }
  ByteWriter attrs;
  attrs.U32(static_cast<uint32_t>(attr_order.size()));
  for (AttrId a : attr_order) attrs.Str(arena.AttrName(a));

  // CONS: E as vertex-index pairs.
  ByteWriter cons;
  cons.U32(static_cast<uint32_t>(engine.constraints().size()));
  for (const Pd& pd : engine.constraints()) {
    cons.U32(engine.VertexIndexOf(pd.lhs));
    cons.U32(engine.VertexIndexOf(pd.rhs));
    cons.U8(pd.is_equation ? kConsEquation : 0);
  }

  // ROWS: the closed arc matrix, |V| rows of ⌈|V|/64⌉ words, row-major;
  // META's arc count is their popcount.
  const std::size_t words = WordsFor(vertices.size());
  ByteWriter rows;
  rows.Reserve(closed.size() * words * 8);
  uint64_t arcs = 0;
  for (const DynamicBitset& row : closed) {
    for (std::size_t k = 0; k < words; ++k) rows.U64(row.word(k));
    arcs += row.Count();
  }

  ByteWriter meta;
  meta.U32(kSnapshotVersion);
  meta.U64(base_fingerprint);
  meta.U64(arcs);
  meta.U64(vertices.size());

  // DecodeSnapshot reads the chunks by position, in exactly this order.
  return EncodeChunkContainer(
      kSnapshotVersion,
      {Chunk{kTagMeta, meta.data()}, Chunk{kTagAttrs, attrs.data()},
       Chunk{kTagVertices, vert.data()}, Chunk{kTagConstraints, cons.data()},
       Chunk{kTagRows, rows.data()}});
}

Result<DecodedSnapshot> DecodeSnapshot(std::string_view bytes,
                                       ExprArena* arena,
                                       const DurableLimits& limits) {
  if (arena == nullptr) {
    return Status::InvalidArgument("arena must not be null");
  }
  PSEM_ASSIGN_OR_RETURN(ChunkContainer container,
                        DecodeChunkContainer(bytes, limits));
  if (container.version != kSnapshotVersion) {
    return Status::DataLoss("unsupported snapshot version " +
                            std::to_string(container.version));
  }
  // The chunks in the one order EncodeSnapshot writes them: anything
  // else (reordered, missing, repeated or extra) is not a snapshot.
  const std::vector<Chunk>& chunks = container.chunks;
  if (chunks.size() != 5 || chunks[0].tag != kTagMeta ||
      chunks[1].tag != kTagAttrs || chunks[2].tag != kTagVertices ||
      chunks[3].tag != kTagConstraints || chunks[4].tag != kTagRows) {
    return Status::DataLoss(
        "snapshot chunks are not META, ATTR, VERT, CONS, ROWS in order");
  }

  DecodedSnapshot snap;

  ByteReader meta(chunks[0].payload);
  uint32_t snap_version = 0;
  uint64_t n_vertices = 0;
  meta.U32(&snap_version);
  meta.U64(&snap.base_fingerprint);
  meta.U64(&snap.state.arc_count);
  meta.U64(&n_vertices);
  if (!meta.ok() || !meta.AtEnd() || snap_version != kSnapshotVersion) {
    return Status::DataLoss("malformed snapshot META chunk");
  }

  // ATTR: the attribute name table.
  ByteReader attrs(chunks[1].payload);
  uint32_t attr_count = 0;
  if (!attrs.U32(&attr_count) ||
      static_cast<uint64_t>(attr_count) * 4 > attrs.remaining()) {
    return Status::DataLoss("malformed snapshot ATTR chunk");
  }
  std::vector<ExprId> attr_exprs;
  attr_exprs.reserve(attr_count);
  for (uint32_t a = 0; a < attr_count; ++a) {
    std::string name;
    if (!attrs.Str(&name, kMaxAttrNameLen) || name.empty()) {
      return Status::DataLoss("malformed snapshot attribute name");
    }
    attr_exprs.push_back(arena->Attr(name));
  }
  if (!attrs.AtEnd()) {
    return Status::DataLoss("trailing bytes in snapshot ATTR chunk");
  }

  // VERT: rebuild V children-first; every child index must be < i, which
  // both bounds the recursion and re-proves the children-first order the
  // engine requires. An entry that interns to an earlier vertex (an
  // attribute listed twice, a duplicate ATTR name, a repeated composite)
  // would shift every later row index, so it is corruption too.
  ByteReader vert(chunks[2].payload);
  uint32_t vcount = 0;
  if (!vert.U32(&vcount) || vcount != n_vertices ||
      static_cast<uint64_t>(vcount) * 5 > vert.remaining()) {
    return Status::DataLoss("malformed snapshot VERT chunk");
  }
  snap.vertices.reserve(vcount);
  // By ExprId: the arena grows by at most one node per entry.
  std::vector<bool> seen(arena->size() + vcount);
  for (uint32_t i = 0; i < vcount; ++i) {
    uint8_t kind = 0;
    if (!vert.U8(&kind)) return Status::DataLoss("truncated snapshot vertex");
    if (kind == static_cast<uint8_t>(ExprKind::kAttr)) {
      uint32_t a = 0;
      if (!vert.U32(&a) || a >= attr_count) {
        return Status::DataLoss("snapshot vertex attribute out of range");
      }
      snap.vertices.push_back(attr_exprs[a]);
    } else if (kind == static_cast<uint8_t>(ExprKind::kProduct) ||
               kind == static_cast<uint8_t>(ExprKind::kSum)) {
      uint32_t l = 0, r = 0;
      if (!vert.U32(&l) || !vert.U32(&r) || l >= i || r >= i) {
        return Status::DataLoss("snapshot vertex child out of range");
      }
      snap.vertices.push_back(
          kind == static_cast<uint8_t>(ExprKind::kProduct)
              ? arena->Product(snap.vertices[l], snap.vertices[r])
              : arena->Sum(snap.vertices[l], snap.vertices[r]));
    } else {
      return Status::DataLoss("snapshot vertex has unknown kind");
    }
    const ExprId e = snap.vertices.back();
    if (seen[e]) return Status::DataLoss("snapshot vertex listed twice");
    seen[e] = true;
  }
  if (!vert.AtEnd()) {
    return Status::DataLoss("trailing bytes in snapshot VERT chunk");
  }

  // CONS: E as vertex-index pairs.
  ByteReader cons(chunks[3].payload);
  uint32_t ccount = 0;
  if (!cons.U32(&ccount) ||
      static_cast<uint64_t>(ccount) * 9 > cons.remaining()) {
    return Status::DataLoss("malformed snapshot CONS chunk");
  }
  snap.constraints.reserve(ccount);
  for (uint32_t c = 0; c < ccount; ++c) {
    uint32_t l = 0, r = 0;
    uint8_t flags = 0;
    if (!cons.U32(&l) || !cons.U32(&r) || !cons.U8(&flags) || l >= vcount ||
        r >= vcount || (flags & ~kConsEquation) != 0) {
      return Status::DataLoss("malformed snapshot constraint");
    }
    Pd pd;
    pd.lhs = snap.vertices[l];
    pd.rhs = snap.vertices[r];
    pd.is_equation = (flags & kConsEquation) != 0;
    snap.constraints.push_back(pd);
  }
  if (!cons.AtEnd()) {
    return Status::DataLoss("trailing bytes in snapshot CONS chunk");
  }

  // ROWS: the closed arc matrix over all of V. set_word rejects stray
  // tail bits — a bit flip past position n-1 in the last word must read
  // as corruption, not silently vanish — and the popcount must match
  // META's arc count, the same audit restore runs.
  const std::size_t n = vcount;
  const std::size_t words = WordsFor(n);
  ByteReader rows(chunks[4].payload);
  if (rows.remaining() != n * words * 8) {
    return Status::DataLoss("snapshot ROWS chunk has wrong size");
  }
  snap.state.up.assign(n, DynamicBitset(n));
  uint64_t arcs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < words; ++k) {
      uint64_t w = 0;
      rows.U64(&w);
      if (!snap.state.up[i].set_word(k, w)) {
        return Status::DataLoss("snapshot row has bits beyond the universe");
      }
    }
    arcs += snap.state.up[i].Count();
  }
  if (arcs != snap.state.arc_count) {
    return Status::DataLoss(
        "snapshot ROWS popcount differs from META arc count");
  }
  return snap;
}

Result<DurablePdEngine> DurablePdEngine::Recover(ExprArena* arena,
                                                 std::vector<Pd> base,
                                                 DurabilityOptions options,
                                                 const ExecContext& ctx) {
  if (arena == nullptr) {
    return Status::InvalidArgument("arena must not be null");
  }
  DurablePdEngine d;
  d.arena_ = arena;
  d.options_ = std::move(options);
  d.base_fingerprint_ = TheoryFingerprint(*arena, base);
  PSEM_RETURN_IF_ERROR(ctx.Check());

  // Journal first: it is the source of truth, so a broken header is a
  // hard kDataLoss (unlike the snapshot, nothing can stand in for it).
  // Open itself repairs a torn tail — the crash-mid-append signature.
  if (!d.options_.journal_path.empty()) {
    PSEM_ASSIGN_OR_RETURN(
        Journal journal, Journal::Open(d.options_.journal_path,
                                       d.options_.limits));
    d.recovery_.journal_records = journal.recovered().records.size();
    d.recovery_.journal_tail_truncated = journal.recovered().tail_truncated;
    d.recovery_.journal_bytes_dropped = journal.recovered().bytes_dropped;
    d.journal_.emplace(std::move(journal));
  }

  // Snapshot next: strictly an accelerator. Any verification failure —
  // unreadable file, checksum, malformed chunk, wrong base theory —
  // records the reason and falls through to the cold path.
  if (!d.options_.snapshot_path.empty()) {
    auto bytes = ReadFileBounded(d.options_.snapshot_path, d.options_.limits);
    if (bytes.ok()) {
      d.recovery_.snapshot_present = true;
      Status restored = [&]() -> Status {
        PSEM_ASSIGN_OR_RETURN(
            DecodedSnapshot snap,
            DecodeSnapshot(*bytes, arena, d.options_.limits));
        if (snap.base_fingerprint != d.base_fingerprint_) {
          return Status::DataLoss(
              "snapshot was taken over a different base theory");
        }
        d.recovery_.restored_vertices = snap.vertices.size();
        d.recovery_.restored_arcs = snap.state.arc_count;
        auto engine = std::make_unique<PdImplicationEngine>(
            arena, std::vector<Pd>{}, d.options_.engine);
        PSEM_RETURN_IF_ERROR(engine->RestoreEngineState(
            snap.vertices, std::move(snap.constraints),
            std::move(snap.state)));
        d.engine_ = std::move(engine);
        return Status::OK();
      }();
      if (restored.ok()) {
        d.recovery_.snapshot_restored = true;
      } else {
        d.recovery_.snapshot_error = restored.ToString();
        d.recovery_.restored_vertices = 0;
        d.recovery_.restored_arcs = 0;
        d.engine_.reset();
      }
    } else if (bytes.status().code() != StatusCode::kNotFound) {
      d.recovery_.snapshot_present = true;
      d.recovery_.snapshot_error = bytes.status().ToString();
    }
  }

  if (d.engine_ == nullptr) {
    d.engine_ = std::make_unique<PdImplicationEngine>(arena, std::move(base),
                                                      d.options_.engine);
  }

  // Replay the journal through the engine's one admission path. Records E
  // already holds (one hash probe) are skipped, so records the snapshot
  // covers are no-ops — which is what lets the journal stay cumulative
  // across checkpoints.
  if (d.journal_.has_value()) {
    for (const std::string& record : d.journal_->recovered().records) {
      auto pd = arena->ParsePd(record);
      if (!pd.ok()) {
        return Status::DataLoss("journal record does not parse: " +
                                pd.status().ToString());
      }
      PSEM_ASSIGN_OR_RETURN(bool admitted,
                            d.engine_->AdmitConstraint(*pd, ctx));
      if (admitted) {
        d.engine_->AddConstraint(*pd);
        ++d.recovery_.journal_replayed_new;
      }
    }
  }

  if (d.recovery_.snapshot_present && !d.recovery_.snapshot_restored) {
    d.recovery_.tier = RecoveryTier::kColdRecompute;
  } else if (d.recovery_.journal_tail_truncated) {
    d.recovery_.tier = RecoveryTier::kJournalTailTruncated;
  } else if (d.recovery_.snapshot_restored) {
    d.recovery_.tier = RecoveryTier::kCleanRestore;
  } else {
    d.recovery_.tier = RecoveryTier::kColdStart;
  }
  return d;
}

Status DurablePdEngine::AddPd(const Pd& pd, const ExecContext& ctx) {
  // The engine's whole admission check runs BEFORE the append, so a
  // constraint the engine would reject is never journaled (recovery
  // would otherwise bring it back).
  PSEM_ASSIGN_OR_RETURN(bool admitted, engine_->AdmitConstraint(pd, ctx));
  if (!admitted) return Status::OK();
  // Write-ahead discipline: the journal record is durable BEFORE the
  // constraint takes effect. A crash after Append but before the engine
  // applies it replays the record on recovery; a failed Append applies
  // nothing, so the caller may retry. Once appended, the constraint is
  // applied unconditionally: it was admitted, and the journal holds it.
  if (journal_.has_value()) {
    PSEM_RETURN_IF_ERROR(journal_->Append(arena_->ToString(pd)));
  }
  engine_->AddConstraint(pd);
  ++since_checkpoint_;
  if (!options_.snapshot_path.empty() && options_.checkpoint_every != 0 &&
      since_checkpoint_ >= options_.checkpoint_every) {
    // Best-effort: a checkpoint trip (deadline, injected fault, full
    // disk) must not fail the accept — the journal already holds the
    // record. The outcome is kept for the caller to inspect.
    Checkpoint(ctx);
  }
  return Status::OK();
}

Status DurablePdEngine::Checkpoint(const ExecContext& ctx) {
  if (options_.snapshot_path.empty()) {
    return last_checkpoint_status_ =
               Status::FailedPrecondition("no snapshot path configured");
  }
  // A snapshot holds only a closed closure: close first, and write
  // nothing if that trips (the previous snapshot stays as it was).
  Status st = engine_->Prepare({}, ctx);
  if (st.ok()) {
    auto bytes = EncodeSnapshot(*engine_, base_fingerprint_);
    st = bytes.ok() ? AtomicWriteFile(options_.snapshot_path, *bytes)
                    : bytes.status();
  }
  last_checkpoint_status_ = st;
  if (st.ok()) since_checkpoint_ = 0;
  return st;
}

}  // namespace psem
