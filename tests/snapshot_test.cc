// Durability tests: the snapshot codec, the write-ahead journal, the
// tiered recovery of DurablePdEngine, and a differential crash-recovery
// sweep — random theories, a fault injected at every durable-I/O site,
// recovery, then verdict-for-verdict comparison of the recovered closure
// against a cold ProvenanceEngine / cold-engine recompute.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/implication.h"
#include "core/proof.h"
#include "core/snapshot.h"
#include "lattice/expr.h"
#include "util/durable_file.h"
#include "util/exec_context.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace psem {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/psem_snap_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    snapshot_ = dir_ + ".snapshot";
    journal_ = dir_ + ".journal";
    ::remove(snapshot_.c_str());
    ::remove(journal_.c_str());
  }
  void TearDown() override {
    FailPoints::DisarmAll();
    ::remove(snapshot_.c_str());
    ::remove(journal_.c_str());
  }

  DurabilityOptions Opts(std::size_t checkpoint_every = 2) const {
    DurabilityOptions o;
    o.snapshot_path = snapshot_;
    o.journal_path = journal_;
    o.checkpoint_every = checkpoint_every;
    return o;
  }

  std::string dir_, snapshot_, journal_;
};

std::vector<Pd> BaseTheory(ExprArena* arena) {
  return {*arena->ParsePd("A*B <= C"), *arena->ParsePd("C <= D+E"),
          *arena->ParsePd("D = A+B")};
}

// --- codec round trip ---------------------------------------------------------

TEST_F(SnapshotTest, EncodeDecodeRoundTripsClosureState) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  PdImplicationEngine engine(&arena, base);
  // Queries extend V beyond the constraint subexpressions, so the
  // snapshot must carry query-introduced vertices too.
  engine.Implies(*arena.ParsePd("A*B <= D+E"));
  engine.Implies(*arena.ParsePd("B*C <= A+E"));
  const uint64_t fp = TheoryFingerprint(arena, base);

  auto bytes = EncodeSnapshot(engine, fp);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  // Decode into a FRESH arena: raw ExprIds must not leak across.
  ExprArena arena2;
  auto snap = DecodeSnapshot(*bytes, &arena2);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->base_fingerprint, fp);
  EXPECT_EQ(snap->vertices.size(), engine.vertices().size());
  EXPECT_EQ(snap->constraints.size(), base.size());

  PdImplicationEngine restored(&arena2, {});
  ASSERT_TRUE(restored
                  .RestoreEngineState(snap->vertices,
                                      std::move(snap->constraints),
                                      std::move(snap->state))
                  .ok());
  EXPECT_EQ(restored.stats().num_vertices, engine.stats().num_vertices);
  EXPECT_EQ(restored.stats().num_arcs, engine.stats().num_arcs);
  // Every pairwise verdict matches the original engine.
  for (std::size_t i = 0; i < engine.vertices().size(); ++i) {
    for (std::size_t j = 0; j < engine.vertices().size(); ++j) {
      EXPECT_EQ(
          restored.ImpliesLeq(restored.vertices()[i], restored.vertices()[j]),
          engine.ImpliesLeq(engine.vertices()[i], engine.vertices()[j]))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

// RestoreEngineState rebuilds down_ with the blocked transpose, and the
// first incremental closure after a restore reads it: new composites over
// restored children take their column arcs from down_ in the catch-up.
// Chains that straddle the 64-bit tile edges, restored and then extended
// with a query over new Ai*Ax / Aj+Ay sides, must close exactly as a cold
// engine over the same E and V does.
TEST_F(SnapshotTest, RestoredChainExtendsLikeAColdEngine) {
  for (int n : {63, 64, 65, 130}) {
    ExprArena arena;
    auto attr = [&](int k) { return arena.Attr("A" + std::to_string(k)); };
    std::vector<Pd> chain;
    for (int k = 0; k + 1 < n; ++k) {
      chain.push_back(Pd::Leq(attr(k), attr(k + 1)));
    }
    PdImplicationEngine engine(&arena, chain);
    engine.Prepare({});
    auto bytes = EncodeSnapshot(engine, TheoryFingerprint(arena, chain));
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto snap = DecodeSnapshot(*bytes, &arena);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    PdImplicationEngine restored(&arena, {});
    ASSERT_TRUE(restored
                    .RestoreEngineState(snap->vertices,
                                        std::move(snap->constraints),
                                        std::move(snap->state))
                    .ok());

    std::vector<Pd> grown = chain;
    grown.push_back(Pd::Leq(attr(n - 1), attr(n)));
    restored.AddConstraint(grown.back());
    const Pd implied = Pd::Leq(arena.Product(attr(1), attr(n)),
                               arena.Sum(attr(n / 2), attr(n - 2)));
    const Pd not_implied = Pd::Leq(arena.Product(attr(n - 1), attr(n)),
                                   arena.Sum(attr(n / 2), attr(3)));
    EXPECT_TRUE(restored.Implies(implied)) << "n " << n;
    EXPECT_FALSE(restored.Implies(not_implied)) << "n " << n;
    EXPECT_EQ(restored.stats().cold_closures, 0u);

    PdImplicationEngine cold(&arena, grown);
    cold.Prepare(restored.vertices());
    ASSERT_EQ(restored.vertices().size(), cold.vertices().size());
    EXPECT_EQ(restored.stats().num_arcs, cold.stats().num_arcs) << "n " << n;
    for (ExprId a : restored.vertices()) {
      for (ExprId b : restored.vertices()) {
        ASSERT_EQ(restored.LeqInClosure(a, b), cold.LeqInClosure(a, b))
            << "n " << n << ": " << arena.ToString(a) << " <= "
            << arena.ToString(b);
      }
    }
  }
}

// A closed or restored engine holds no frontier or tag rows, and a
// restored engine grows as a live one does. A chain with composites in V
// is snapshotted and restored; the restored engine then takes chain
// extensions, implied shortcuts, queries over new composites and a
// closure an arc budget stops before its rounds finish (that one keeps
// its frontier until resumed). After every step it must match a cold
// engine over the same E and V arc for arc.
TEST_F(SnapshotTest, RestoredEngineGrowsLikeAColdEngineAndHoldsNoFrontier) {
  constexpr int kChain = 150;
  ExprArena arena;
  auto attr = [&](int k) { return arena.Attr("A" + std::to_string(k)); };
  std::vector<Pd> e;
  for (int k = 0; k + 1 < kChain; ++k) e.push_back(Pd::Leq(attr(k), attr(k + 1)));
  PdImplicationEngine engine(&arena, e);
  EXPECT_TRUE(engine.Implies(Pd::Leq(arena.Product(attr(3), attr(90)),
                                     arena.Sum(attr(40), attr(7)))));
  EXPECT_EQ(engine.CountFrontierRows(), 0u);
  auto bytes = EncodeSnapshot(engine, TheoryFingerprint(arena, e));
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto snap = DecodeSnapshot(*bytes, &arena);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  PdImplicationEngine restored(&arena, {});
  ASSERT_TRUE(restored
                  .RestoreEngineState(snap->vertices,
                                      std::move(snap->constraints),
                                      std::move(snap->state))
                  .ok());
  EXPECT_EQ(restored.CountFrontierRows(), 0u);

  auto matches_cold = [&](const std::string& step) {
    PdImplicationEngine cold(&arena, e);
    cold.Prepare(restored.vertices());
    ASSERT_EQ(restored.vertices().size(), cold.vertices().size()) << step;
    EXPECT_EQ(restored.stats().num_arcs, cold.stats().num_arcs) << step;
    EXPECT_EQ(restored.CountFrontierRows(), 0u) << step;
    for (ExprId a : restored.vertices()) {
      for (ExprId b : restored.vertices()) {
        ASSERT_EQ(restored.LeqInClosure(a, b), cold.LeqInClosure(a, b))
            << step << ": " << arena.ToString(a) << " <= " << arena.ToString(b);
      }
    }
  };
  auto write = [&](const Pd& pd) {
    e.push_back(pd);
    restored.AddConstraint(pd);
  };

  Rng rng(4242);
  int top = kChain - 1;
  for (int stage = 0; stage < 4; ++stage) {
    write(Pd::Leq(attr(top), attr(top + 1)));
    ++top;
    restored.Prepare({});
    matches_cold("extension " + std::to_string(stage));

    const int i = static_cast<int>(rng.Below(top));
    write(Pd::Leq(attr(i), attr(i + 1 + static_cast<int>(rng.Below(top - i)))));
    restored.Prepare({});
    matches_cold("shortcut " + std::to_string(stage));

    auto pick = [&] { return attr(static_cast<int>(rng.Below(top + 1))); };
    const Pd query = Pd::Leq(arena.Product(pick(), pick()),
                             arena.Sum(pick(), pick()));
    const bool verdict = restored.Implies(query);
    PdImplicationEngine cold(&arena, e);
    EXPECT_EQ(verdict, cold.Implies(query)) << arena.ToString(query);
    matches_cold("query " + arena.ToString(query));

    // Two new tops at once under a budget of one more arc: the seeds
    // alone exceed it, so the closure stops at its first round and keeps
    // the frontier; an unbounded Prepare then resumes it.
    write(Pd::Leq(attr(top), attr(top + 1)));
    write(Pd::Leq(attr(top + 1), attr(top + 2)));
    top += 2;
    ExecContext tight;
    tight.WithMaxArcs(restored.stats().num_arcs + 1);
    Status st = restored.Prepare({}, tight);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
    EXPECT_GT(restored.CountFrontierRows(), 0u);
    restored.Prepare({});
    matches_cold("aborted extension " + std::to_string(stage));
    ASSERT_FALSE(HasFailure());
  }
  EXPECT_EQ(restored.stats().cold_closures, 0u);
  EXPECT_GE(restored.stats().aborted_closures, 4u);
}

TEST_F(SnapshotTest, DecodeRejectsCorruptBytes) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  PdImplicationEngine engine(&arena, base);
  engine.Implies(*arena.ParsePd("A <= B"));
  auto bytes = EncodeSnapshot(engine, TheoryFingerprint(arena, base));
  ASSERT_TRUE(bytes.ok());

  {  // truncation at every prefix length must never crash or succeed oddly
    for (std::size_t len : {std::size_t{0}, std::size_t{4}, bytes->size() / 2,
                            bytes->size() - 1}) {
      ExprArena scratch;
      auto r = DecodeSnapshot(std::string_view(*bytes).substr(0, len), &scratch);
      EXPECT_FALSE(r.ok()) << "prefix " << len;
    }
  }
  {  // every single-byte flip is caught by CRC or magic check
    for (std::size_t pos = 0; pos < bytes->size(); pos += 7) {
      std::string corrupt = *bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
      ExprArena scratch;
      auto r = DecodeSnapshot(corrupt, &scratch);
      EXPECT_FALSE(r.ok()) << "flip at " << pos;
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "flip at " << pos;
    }
  }
}

// A snapshot holds only a closed closure: an engine with a constraint it
// has not yet closed over has nothing to export.
TEST_F(SnapshotTest, EncodeRequiresClosedEngine) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  PdImplicationEngine engine(&arena, base);
  engine.Implies(*arena.ParsePd("A*B <= D+E"));
  engine.AddConstraint(*arena.ParsePd("E <= A"));
  auto bytes = EncodeSnapshot(engine, TheoryFingerprint(arena, base));
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kFailedPrecondition);
  engine.Prepare({});
  EXPECT_TRUE(EncodeSnapshot(engine, TheoryFingerprint(arena, base)).ok());
}

// The version-2 chunks of a snapshot over attribute-only vertices, laid
// out by hand: ATTR lists `attrs`, VERT lists `vert` (indices into
// `attrs`), E is empty, ROWS is the identity (every vertex <= itself),
// and META claims `arc_count` arcs.
std::string HandBuiltSnapshot(const std::vector<std::string>& attrs,
                              const std::vector<uint32_t>& vert,
                              uint64_t arc_count) {
  ByteWriter meta, attr, verts, cons, rows;
  meta.U32(2);
  meta.U64(TheoryFingerprint(ExprArena(), {}));
  meta.U64(arc_count);
  meta.U64(vert.size());
  attr.U32(static_cast<uint32_t>(attrs.size()));
  for (const std::string& a : attrs) attr.Str(a);
  verts.U32(static_cast<uint32_t>(vert.size()));
  for (uint32_t a : vert) {
    verts.U8(static_cast<uint8_t>(ExprKind::kAttr));
    verts.U32(a);
  }
  cons.U32(0);
  const std::size_t n = vert.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < (n + 63) / 64; ++k) {
      rows.U64(k == i / 64 ? uint64_t{1} << (i % 64) : 0);
    }
  }
  return EncodeChunkContainer(
      2, {Chunk{ChunkTag("META"), meta.data()},
          Chunk{ChunkTag("ATTR"), attr.data()},
          Chunk{ChunkTag("VERT"), verts.data()},
          Chunk{ChunkTag("CONS"), cons.data()},
          Chunk{ChunkTag("ROWS"), rows.data()}});
}

Status DecodeAndRestore(const std::string& bytes) {
  ExprArena arena;
  PSEM_ASSIGN_OR_RETURN(DecodedSnapshot snap, DecodeSnapshot(bytes, &arena));
  PdImplicationEngine engine(&arena, {});
  return engine.RestoreEngineState(snap.vertices, std::move(snap.constraints),
                                   std::move(snap.state));
}

// Anything DecodeSnapshot accepts, a fresh engine's RestoreEngineState
// must accept too (the fuzz_snapshot contract): the decoder rejects the
// two layouts the engine would refuse.
TEST_F(SnapshotTest, DecodeRejectsWhatRestoreRejects) {
  // Control: the builder's well-formed output decodes and restores.
  Status control = DecodeAndRestore(HandBuiltSnapshot({"A", "B"}, {0, 1}, 2));
  ASSERT_TRUE(control.ok()) << control.ToString();

  ExprArena arena;
  // VERT lists attribute A twice: the second entry would take row 1 of a
  // vertex restore has already placed at row 0.
  auto dup = DecodeSnapshot(HandBuiltSnapshot({"A"}, {0, 0}, 2), &arena);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(dup.status().message().find("listed twice"), std::string::npos)
      << dup.status().ToString();
  // The same vertex reached through a duplicate ATTR name.
  auto dup_name =
      DecodeSnapshot(HandBuiltSnapshot({"A", "A"}, {0, 1}, 2), &arena);
  ASSERT_FALSE(dup_name.ok());
  EXPECT_NE(dup_name.status().message().find("listed twice"),
            std::string::npos)
      << dup_name.status().ToString();

  // META claims 5 arcs over ROWS holding 2.
  auto arcs = DecodeSnapshot(HandBuiltSnapshot({"A", "B"}, {0, 1}, 5), &arena);
  ASSERT_FALSE(arcs.ok());
  EXPECT_EQ(arcs.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(arcs.status().message().find("arc count"), std::string::npos)
      << arcs.status().ToString();
}

// The committed fuzz seeds must stay on the current format: the valid seed
// decodes and restores, and each damaged seed is rejected for its damage,
// not for its version. A format bump that forgets to regenerate them
// fails here instead of leaving the fuzz job running stale seeds.
std::string ReadSnapshotSeed(const std::string& name) {
  std::ifstream in(std::string(PSEM_SNAPSHOT_CORPUS_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(SnapshotTest, CommittedFuzzSeedsMatchTheFormat) {
  const std::string valid = ReadSnapshotSeed("valid_snapshot");
  ASSERT_FALSE(valid.empty());
  Status st = DecodeAndRestore(valid);
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (const char* name :
       {"bitflipped_snapshot", "truncated_snapshot",
        "duplicate_vertex_snapshot", "arc_count_mismatch_snapshot",
        "reordered_chunks_snapshot"}) {
    SCOPED_TRACE(name);
    const std::string bytes = ReadSnapshotSeed(name);
    ASSERT_FALSE(bytes.empty());
    ExprArena arena;
    auto r = DecodeSnapshot(bytes, &arena);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(r.status().message().find("version"), std::string::npos)
        << r.status().ToString();
  }
}

// The committed valid seed, decoded, restored and encoded again, is the
// same bytes: the on-disk format is pinned, whatever the codec's insides.
TEST_F(SnapshotTest, CommittedValidSnapshotReencodesByteForByte) {
  const std::string valid = ReadSnapshotSeed("valid_snapshot");
  ASSERT_FALSE(valid.empty());
  ExprArena arena;
  auto snap = DecodeSnapshot(valid, &arena);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  PdImplicationEngine engine(&arena, {});
  ASSERT_TRUE(engine
                  .RestoreEngineState(snap->vertices,
                                      std::move(snap->constraints),
                                      std::move(snap->state))
                  .ok());
  auto again = EncodeSnapshot(engine, snap->base_fingerprint);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, valid);
}

// A decoded container borrows its input: every payload lies inside the
// decoded bytes, where its frame put it, not in a copy.
TEST_F(SnapshotTest, DecodedPayloadsLieInsideTheInput) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  PdImplicationEngine engine(&arena, base);
  engine.Implies(*arena.ParsePd("A*B <= D+E"));
  auto bytes = EncodeSnapshot(engine, TheoryFingerprint(arena, base));
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto container = DecodeChunkContainer(*bytes);
  ASSERT_TRUE(container.ok()) << container.status().ToString();
  ASSERT_EQ(container->chunks.size(), 5u);
  // Past the 12-byte header and each chunk's 12-byte tag + length.
  std::size_t offset = 12 + 12;
  for (const Chunk& c : container->chunks) {
    EXPECT_EQ(c.payload.data(), bytes->data() + offset);
    offset += c.payload.size() + 4 + 12;  // its crc, the next tag + length
  }
  EXPECT_EQ(offset - 12, bytes->size());
}

// DecodeSnapshot reads the chunks by position. A container whose chunks
// are reordered, cut short or followed by an extra one is not a snapshot:
// decode reports kDataLoss, and recovery rebuilds from base theory plus
// the journal.
TEST_F(SnapshotTest, MisorderedOrExtraChunksRecoverAsColdRecompute) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  {
    auto d = DurablePdEngine::Recover(&arena, base, Opts(/*checkpoint_every=*/0));
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_TRUE(
        d->AddPd(*arena.ParsePd("E <= A+C"), ExecContext::Unbounded()).ok());
    ASSERT_TRUE(d->Checkpoint(ExecContext::Unbounded()).ok());
  }
  const std::string bytes = *ReadFileBounded(snapshot_);
  auto file = DecodeChunkContainer(bytes);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->chunks.size(), 5u);
  std::vector<Chunk> reordered = file->chunks;
  std::swap(reordered[1], reordered[2]);  // VERT before ATTR
  std::vector<Chunk> extra = file->chunks;
  extra.push_back(Chunk{ChunkTag("XTRA"), "unknown"});
  std::vector<Chunk> missing = file->chunks;
  missing.pop_back();

  for (const std::vector<Chunk>& chunks : {reordered, extra, missing}) {
    const std::string damaged = EncodeChunkContainer(2, chunks);
    SCOPED_TRACE(chunks.size());
    ExprArena scratch;
    auto r = DecodeSnapshot(damaged, &scratch);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(r.status().message().find("in order"), std::string::npos)
        << r.status().ToString();

    ASSERT_TRUE(AtomicWriteFile(snapshot_, damaged).ok());
    ExprArena arena2;
    auto d = DurablePdEngine::Recover(&arena2, BaseTheory(&arena2), Opts());
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_STREQ(RecoveryTierName(d->recovery().tier), "cold-recompute");
    EXPECT_EQ(d->recovery().journal_replayed_new, 1u);
    EXPECT_TRUE(d->engine().Implies(*arena2.ParsePd("E <= A+C")));
  }
}

// A restored engine reports what it holds: its stats() carry the source
// engine's |V| and arc count before any closure runs.
TEST_F(SnapshotTest, RestoredEngineStatsMatchTheSource) {
  ExprArena arena;
  auto attr = [&](int k) {
    std::string name = "A";
    return arena.Attr(name += std::to_string(k));
  };
  std::vector<Pd> chain;
  for (int k = 0; k + 1 < 64; ++k) {
    chain.push_back(Pd::Leq(attr(k), attr(k + 1)));
  }
  PdImplicationEngine source(&arena, chain);
  source.Prepare({});
  ASSERT_EQ(source.stats().num_vertices, 64u);
  ASSERT_EQ(source.stats().num_arcs, 64u * 65u / 2u);
  auto bytes = EncodeSnapshot(source, TheoryFingerprint(arena, chain));
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  ExprArena arena2;
  auto snap = DecodeSnapshot(*bytes, &arena2);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  PdImplicationEngine restored(&arena2, {});
  ASSERT_TRUE(restored
                  .RestoreEngineState(snap->vertices,
                                      std::move(snap->constraints),
                                      std::move(snap->state))
                  .ok());
  EXPECT_EQ(restored.stats().num_vertices, source.stats().num_vertices);
  EXPECT_EQ(restored.stats().num_arcs, source.stats().num_arcs);
  EXPECT_TRUE(restored.Implies(
      Pd::Leq(arena2.Attr("A0"), arena2.Attr("A63"))));
  EXPECT_EQ(restored.stats().cold_closures, 0u);
}

TEST_F(SnapshotTest, FingerprintDistinguishesTheories) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  auto other = BaseTheory(&arena);
  other.push_back(*arena.ParsePd("A <= E"));
  EXPECT_EQ(TheoryFingerprint(arena, base), TheoryFingerprint(arena, base));
  EXPECT_NE(TheoryFingerprint(arena, base), TheoryFingerprint(arena, other));
  EXPECT_NE(TheoryFingerprint(arena, base), TheoryFingerprint(arena, {}));
}

// --- journal ------------------------------------------------------------------

TEST_F(SnapshotTest, JournalAppendsSurviveReopen) {
  {
    auto j = Journal::Open(journal_);
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    EXPECT_EQ(j->recovered().records.size(), 0u);
    ASSERT_TRUE(j->Append("A <= B").ok());
    ASSERT_TRUE(j->Append("C = D*E").ok());
  }
  auto j = Journal::Open(journal_);
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j->recovered().records.size(), 2u);
  EXPECT_EQ(j->recovered().records[0], "A <= B");
  EXPECT_EQ(j->recovered().records[1], "C = D*E");
  EXPECT_FALSE(j->recovered().tail_truncated);
}

TEST_F(SnapshotTest, JournalTornTailIsTruncatedAtLastValidRecord) {
  {
    auto j = Journal::Open(journal_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j->Append("A <= B").ok());
    ASSERT_TRUE(j->Append("B <= C").ok());
  }
  // Simulate a crash mid-append: raw garbage (half a frame) at the tail.
  {
    std::FILE* f = std::fopen(journal_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x50\x4a\x52\x4e\xff\xff";
    std::fwrite(garbage, 1, sizeof(garbage) - 1, f);
    std::fclose(f);
  }
  auto j = Journal::Open(journal_);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_TRUE(j->recovered().tail_truncated);
  EXPECT_GT(j->recovered().bytes_dropped, 0u);
  ASSERT_EQ(j->recovered().records.size(), 2u);
  EXPECT_EQ(j->recovered().records[1], "B <= C");

  // The repair is physical: appends extend a valid prefix, and the next
  // open sees all three records with no tear.
  ASSERT_TRUE(j->Append("C <= D").ok());
  auto j2 = Journal::Open(journal_);
  ASSERT_TRUE(j2.ok());
  EXPECT_FALSE(j2->recovered().tail_truncated);
  ASSERT_EQ(j2->recovered().records.size(), 3u);
  EXPECT_EQ(j2->recovered().records[2], "C <= D");
}

TEST_F(SnapshotTest, JournalRejectsCorruptHeader) {
  ASSERT_TRUE(AtomicWriteFile(journal_, "NOTAJRNL").ok());
  auto j = Journal::Open(journal_);
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kDataLoss);
}

// --- DurablePdEngine lifecycle ------------------------------------------------

TEST_F(SnapshotTest, ColdStartThenCleanRestore) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  Pd extra = *arena.ParsePd("E <= A+C");
  Pd query = *arena.ParsePd("A*B <= D+E");
  bool expected;
  {
    auto d = DurablePdEngine::Recover(&arena, base, Opts());
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d->recovery().tier, RecoveryTier::kColdStart);
    ASSERT_TRUE(d->AddPd(extra, ExecContext::Unbounded()).ok());
    ASSERT_TRUE(d->Checkpoint(ExecContext::Unbounded()).ok());
    expected = d->engine().Implies(query);
  }
  // "Crash" (drop the object) and recover in a fresh arena.
  ExprArena arena2;
  auto base2 = BaseTheory(&arena2);
  auto d = DurablePdEngine::Recover(&arena2, base2, Opts());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->recovery().tier, RecoveryTier::kCleanRestore);
  EXPECT_TRUE(d->recovery().snapshot_restored);
  EXPECT_GT(d->recovery().restored_vertices, 0u);
  // The journaled constraint is already in the snapshot: replay is a no-op.
  EXPECT_EQ(d->recovery().journal_records, 1u);
  EXPECT_EQ(d->recovery().journal_replayed_new, 0u);
  EXPECT_EQ(d->engine().Implies(*arena2.ParsePd("A*B <= D+E")), expected);
  EXPECT_EQ(d->engine().constraints().size(), base.size() + 1);
}

TEST_F(SnapshotTest, JournalAloneRecoversUncheckpointedConstraints) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  {
    DurabilityOptions opts = Opts(/*checkpoint_every=*/0);  // never snapshot
    auto d = DurablePdEngine::Recover(&arena, base, opts);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d->AddPd(*arena.ParsePd("E <= A"), ExecContext::Unbounded()).ok());
    ASSERT_TRUE(d->AddPd(*arena.ParsePd("C = A*D"), ExecContext::Unbounded()).ok());
  }
  ExprArena arena2;
  auto base2 = BaseTheory(&arena2);
  auto d = DurablePdEngine::Recover(&arena2, base2, Opts());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->recovery().tier, RecoveryTier::kColdStart);
  EXPECT_EQ(d->recovery().journal_replayed_new, 2u);
  EXPECT_EQ(d->engine().constraints().size(), base.size() + 2);
}

TEST_F(SnapshotTest, RightNestedConstraintRecoversExactlyOnce) {
  // The journal record must re-parse to the same tree the snapshot holds,
  // or replay misses the dedupe and adds the constraint a second time.
  {
    ExprArena arena;
    auto d = DurablePdEngine::Recover(&arena, {}, Opts(/*checkpoint_every=*/0));
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    Pd pd = Pd::Leq(arena.Product(arena.Attr("A1"),
                                  arena.Product(arena.Attr("A2"),
                                                arena.Attr("A3"))),
                    arena.Attr("B"));
    ASSERT_TRUE(d->AddPd(pd, ExecContext::Unbounded()).ok());
    ASSERT_TRUE(d->Checkpoint(ExecContext::Unbounded()).ok());
  }
  ExprArena arena2;
  auto d = DurablePdEngine::Recover(&arena2, {}, Opts());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->recovery().tier, RecoveryTier::kCleanRestore);
  EXPECT_EQ(d->recovery().journal_records, 1u);
  EXPECT_EQ(d->recovery().journal_replayed_new, 0u);
  ASSERT_EQ(d->engine().constraints().size(), 1u);
  EXPECT_EQ(d->engine().constraints()[0], *arena2.ParsePd("A1*(A2*A3) <= B"));
}

TEST_F(SnapshotTest, MismatchedBaseTheoryDegradesToColdRecompute) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  {
    auto d = DurablePdEngine::Recover(&arena, base, Opts());
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d->AddPd(*arena.ParsePd("E <= A"), ExecContext::Unbounded()).ok());
    ASSERT_TRUE(d->Checkpoint(ExecContext::Unbounded()).ok());
  }
  // Recover under a DIFFERENT base theory: the snapshot must be rejected
  // (its closure encodes consequences of the old E) and the engine
  // rebuilt cold from the new base + journal.
  ExprArena arena2;
  std::vector<Pd> other = {*arena2.ParsePd("A <= B")};
  auto d = DurablePdEngine::Recover(&arena2, other, Opts());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->recovery().tier, RecoveryTier::kColdRecompute);
  EXPECT_FALSE(d->recovery().snapshot_restored);
  EXPECT_NE(d->recovery().snapshot_error.find("base theory"),
            std::string::npos);
  // Journal still replays on top of the new base.
  EXPECT_EQ(d->recovery().journal_replayed_new, 1u);
  EXPECT_EQ(d->engine().constraints().size(), 2u);
}

// A snapshot written before the format dropped the frontier (version 1)
// is not restored; recovery falls back to base theory + the cumulative
// journal, so no accepted constraint is lost.
TEST_F(SnapshotTest, Version1SnapshotDegradesToColdRecompute) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  Pd extra = *arena.ParsePd("E <= A+C");
  {
    auto d = DurablePdEngine::Recover(&arena, base, Opts(/*checkpoint_every=*/0));
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d->AddPd(extra, ExecContext::Unbounded()).ok());
    ASSERT_TRUE(d->Checkpoint(ExecContext::Unbounded()).ok());
  }
  // Rewrite the file as version 1 wrote it: META also carried the seeded
  // vertex count and a closure_valid byte, and an empty DLTA chunk
  // followed ROWS.
  const std::string bytes = *ReadFileBounded(snapshot_);
  auto file = DecodeChunkContainer(bytes);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<Chunk> chunks = file->chunks;
  ASSERT_EQ(chunks[0].tag, ChunkTag("META"));
  ByteReader meta(chunks[0].payload);
  uint32_t version = 0;
  uint64_t fingerprint = 0, arcs = 0, n = 0;
  ASSERT_TRUE(meta.U32(&version) && meta.U64(&fingerprint) &&
              meta.U64(&arcs) && meta.U64(&n));
  ByteWriter v1_meta;
  v1_meta.U32(1);
  v1_meta.U64(fingerprint);
  v1_meta.U64(arcs);
  v1_meta.U64(n);  // seeded vertices
  v1_meta.U64(n);
  v1_meta.U8(1);  // closure_valid
  chunks[0].payload = v1_meta.data();
  ByteWriter dlta;
  dlta.U32(0);
  chunks.push_back(Chunk{ChunkTag("DLTA"), dlta.data()});
  ASSERT_TRUE(
      AtomicWriteFile(snapshot_, EncodeChunkContainer(1, chunks)).ok());

  ExprArena arena2;
  auto base2 = BaseTheory(&arena2);
  auto d = DurablePdEngine::Recover(&arena2, base2, Opts());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->recovery().tier, RecoveryTier::kColdRecompute);
  EXPECT_NE(d->recovery().snapshot_error.find("unsupported snapshot version 1"),
            std::string::npos)
      << d->recovery().snapshot_error;
  EXPECT_EQ(d->recovery().journal_replayed_new, 1u);
  EXPECT_EQ(d->engine().constraints().size(), base.size() + 1);
  EXPECT_TRUE(d->engine().Implies(*arena2.ParsePd("E <= A+C")));
}

TEST_F(SnapshotTest, RecoveryStatsReportEveryTier) {
  // Tier names are part of the CLI contract (recovery summary line).
  EXPECT_STREQ(RecoveryTierName(RecoveryTier::kColdStart), "cold-start");
  EXPECT_STREQ(RecoveryTierName(RecoveryTier::kCleanRestore),
               "clean-restore");
  EXPECT_STREQ(RecoveryTierName(RecoveryTier::kJournalTailTruncated),
               "journal-tail-truncated");
  EXPECT_STREQ(RecoveryTierName(RecoveryTier::kColdRecompute),
               "cold-recompute");
}

// --- differential crash recovery ----------------------------------------------

#define SKIP_WITHOUT_FAILPOINTS()                                     \
  if (!FailPoints::Enabled()) {                                       \
    GTEST_SKIP() << "fail points compiled out (PSEM_FAILPOINTS=OFF)"; \
  }

ExprId RandExpr(ExprArena* arena, Rng* rng, int num_attrs, int ops) {
  if (ops == 0) {
    return arena->Attr(
        std::string(1, static_cast<char>('A' + rng->Below(num_attrs))));
  }
  int left = static_cast<int>(rng->Below(static_cast<uint64_t>(ops)));
  ExprId l = RandExpr(arena, rng, num_attrs, left);
  ExprId r = RandExpr(arena, rng, num_attrs, ops - 1 - left);
  return rng->Chance(1, 2) ? arena->Product(l, r) : arena->Sum(l, r);
}

Pd RandPd(ExprArena* arena, Rng* rng) {
  ExprId l = RandExpr(arena, rng, 4, static_cast<int>(rng->Below(3)));
  ExprId r = RandExpr(arena, rng, 4, static_cast<int>(rng->Below(3)));
  return rng->Chance(1, 2) ? Pd::Eq(l, r) : Pd::Leq(l, r);
}

// One crash-recovery trial: grow a random theory through the durable
// engine with `crash_site` armed to fire once mid-stream, drop the
// engine wherever the fault left it, recover, finish the stream, and
// differential-check every vertex-pair verdict against a cold engine —
// with the literal ProvenanceEngine re-checking a sample as the ground
// truth.
void CrashRecoveryTrial(uint64_t seed, const char* crash_site,
                        const std::string& snapshot_path,
                        const std::string& journal_path) {
  SCOPED_TRACE(std::string("site=") + (crash_site ? crash_site : "none") +
               " seed=" + std::to_string(seed));
  Rng rng(seed);
  ::remove(snapshot_path.c_str());
  ::remove(journal_path.c_str());

  DurabilityOptions opts;
  opts.snapshot_path = snapshot_path;
  opts.journal_path = journal_path;
  opts.checkpoint_every = 2;

  ExprArena arena;
  std::vector<Pd> base = {RandPd(&arena, &rng), RandPd(&arena, &rng)};
  const int num_deltas = 6;
  std::vector<Pd> accepted;  // every constraint the durable engine ACKed

  {
    auto d = DurablePdEngine::Recover(&arena, base, opts);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    for (int i = 0; i < num_deltas; ++i) {
      if (crash_site != nullptr && i == num_deltas / 2) {
        FailPoints::Arm(crash_site, 1);
      }
      Pd pd = RandPd(&arena, &rng);
      Status st = d->AddPd(pd, ExecContext::Unbounded());
      if (st.ok()) {
        accepted.push_back(pd);
      } else {
        // A failed accept is a clean rejection: the constraint is not
        // part of E and recovery must not resurrect it... unless the
        // fault hit AFTER the journal append (fsync tear), where the
        // record may legally survive. Re-accept it below to keep the
        // reference theory unambiguous.
        Status retry = d->AddPd(pd, ExecContext::Unbounded());
        ASSERT_TRUE(retry.ok()) << retry.ToString();
        accepted.push_back(pd);
      }
      // Interleave queries so V outgrows the constraint subexpressions.
      if (i % 2 == 0) d->engine().Implies(RandPd(&arena, &rng));
    }
    FailPoints::DisarmAll();
    // Crash: the object is dropped with whatever the fault left on disk.
  }

  // Recover and finish: every acked constraint must still be in E.
  auto recovered = DurablePdEngine::Recover(&arena, base, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (const Pd& pd : accepted) {
    bool present = false;
    for (const Pd& c : recovered->engine().constraints()) {
      if (c == pd) {
        present = true;
        break;
      }
    }
    EXPECT_TRUE(present) << "acked constraint lost across crash recovery";
  }

  // Differential closure check: cold engine over base + accepted.
  std::vector<Pd> full = base;
  full.insert(full.end(), accepted.begin(), accepted.end());
  PdImplicationEngine cold(&arena, full);
  const std::vector<ExprId> all_verts = recovered->engine().vertices();
  recovered->engine().Prepare(all_verts);
  const auto& verts = recovered->engine().vertices();
  int checked = 0;
  for (std::size_t i = 0; i < verts.size(); ++i) {
    for (std::size_t j = 0; j < verts.size(); ++j) {
      bool warm = recovered->engine().ImpliesLeq(verts[i], verts[j]);
      bool cold_v = cold.ImpliesLeq(verts[i], verts[j]);
      ASSERT_EQ(warm, cold_v) << "closure diverged at pair (" << i << ", "
                              << j << ")";
      // Sampled ground-truth re-check against the literal rule engine.
      if (++checked % 97 == 0) {
        EXPECT_EQ(warm, ProvenanceEngine(&arena, full)
                            .Prove(Pd::Leq(verts[i], verts[j]))
                            .ok());
      }
    }
  }

  ::remove(snapshot_path.c_str());
  ::remove(journal_path.c_str());
}

TEST_F(SnapshotTest, DifferentialCrashRecoveryAtEveryIoSite) {
  SKIP_WITHOUT_FAILPOINTS();
  const char* sites[] = {nullptr,  // control: no fault at all
                         failpoints::kIoTornWrite, failpoints::kIoShortRead,
                         failpoints::kIoBitFlip,   failpoints::kIoFsync,
                         failpoints::kIoRename};
  uint64_t seed = 7100;
  for (const char* site : sites) {
    for (int trial = 0; trial < 3; ++trial) {
      CrashRecoveryTrial(seed++, site, snapshot_, journal_);
      if (HasFatalFailure()) return;
    }
  }
}

// Corruption discovered at RECOVERY time (not accept time): the fault
// fires on the snapshot read, recovery degrades to cold recompute, and
// verdicts still match a cold engine.
TEST_F(SnapshotTest, SnapshotReadFaultsDegradeToColdRecompute) {
  SKIP_WITHOUT_FAILPOINTS();
  ExprArena arena;
  auto base = BaseTheory(&arena);
  Pd query = *arena.ParsePd("A*B <= D+E");
  bool expected;
  {
    auto d = DurablePdEngine::Recover(&arena, base, Opts());
    ASSERT_TRUE(d.ok());
    expected = d->engine().Implies(query);
    ASSERT_TRUE(d->Checkpoint(ExecContext::Unbounded()).ok());
  }
  // Recover snapshot-only (no journal path) so the one and only read of
  // the recovery is the snapshot itself — the armed fault must hit it.
  DurabilityOptions snap_only;
  snap_only.snapshot_path = snapshot_;
  for (const char* site :
       {failpoints::kIoBitFlip, failpoints::kIoShortRead}) {
    SCOPED_TRACE(site);
    ExprArena arena2;
    auto base2 = BaseTheory(&arena2);
    FailPoints::Arm(site, 1);
    auto d = DurablePdEngine::Recover(&arena2, base2, snap_only);
    FailPoints::DisarmAll();
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d->recovery().tier, RecoveryTier::kColdRecompute);
    EXPECT_FALSE(d->recovery().snapshot_error.empty());
    EXPECT_EQ(d->engine().Implies(*arena2.ParsePd("A*B <= D+E")), expected);
  }
}

// A journal damaged mid-file recovers its valid prefix: point-in-time
// recovery, the same contract RocksDB's WAL default gives. Records after
// the damage are gone (they were sequenced after the corruption point);
// everything before it survives and the closure matches a cold engine
// over exactly the surviving constraints.
TEST_F(SnapshotTest, JournalReadFaultRecoversValidPrefix) {
  SKIP_WITHOUT_FAILPOINTS();
  ExprArena arena;
  auto base = BaseTheory(&arena);
  std::vector<Pd> deltas = {*arena.ParsePd("E <= A"), *arena.ParsePd("B <= C+D"),
                            *arena.ParsePd("C = C*E"), *arena.ParsePd("A <= D")};
  DurabilityOptions jrnl_only;
  jrnl_only.journal_path = journal_;
  {
    auto d = DurablePdEngine::Recover(&arena, base, jrnl_only);
    ASSERT_TRUE(d.ok());
    for (const Pd& pd : deltas) {
      ASSERT_TRUE(d->AddPd(pd, ExecContext::Unbounded()).ok());
    }
  }
  FailPoints::Arm(failpoints::kIoShortRead, 1);
  auto d = DurablePdEngine::Recover(&arena, base, jrnl_only);
  FailPoints::DisarmAll();
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_LE(d->recovery().journal_records, deltas.size());
  // The surviving records are a prefix of the appended sequence; unless
  // the halved read happened to land exactly on a record boundary, the
  // tear is detected and reported as the tail-truncation tier.
  const std::size_t kept = d->recovery().journal_records;
  if (kept < deltas.size()) {
    EXPECT_EQ(d->recovery().tier, RecoveryTier::kJournalTailTruncated);
    EXPECT_TRUE(d->recovery().journal_tail_truncated);
  }
  std::vector<Pd> full = base;
  full.insert(full.end(), deltas.begin(), deltas.begin() + kept);
  EXPECT_EQ(d->engine().constraints().size(), full.size());
  PdImplicationEngine cold(&arena, full);
  Pd probe = *arena.ParsePd("A*B <= D+E");
  EXPECT_EQ(d->engine().Implies(probe), cold.Implies(probe));
}

// Checkpoint failures must not fail the accept path: the journal already
// holds the record, so durability is preserved either way.
TEST_F(SnapshotTest, CheckpointFaultDoesNotFailAddPd) {
  SKIP_WITHOUT_FAILPOINTS();
  ExprArena arena;
  auto base = BaseTheory(&arena);
  auto d = DurablePdEngine::Recover(&arena, base, Opts(/*checkpoint_every=*/1));
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(d->AddPd(*arena.ParsePd("E <= A"), ExecContext::Unbounded()).ok());
  ASSERT_TRUE(d->last_checkpoint_status().ok());

  // Arm rename: the journal append succeeds (it does not rename), the
  // auto-checkpoint's atomic write fails.
  FailPoints::Arm(failpoints::kIoRename, 1);
  Status st = d->AddPd(*arena.ParsePd("B <= C+D"), ExecContext::Unbounded());
  FailPoints::DisarmAll();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(d->last_checkpoint_status().ok());
  EXPECT_EQ(d->last_checkpoint_status().code(), StatusCode::kIoError);

  // And the constraint survives a crash via the journal.
  ExprArena arena2;
  auto base2 = BaseTheory(&arena2);
  auto r = DurablePdEngine::Recover(&arena2, base2, Opts());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->engine().constraints().size(), base.size() + 2);
}

// AddPd runs the engine's whole admission check before the journal
// append: a PD the vertex budget rejects leaves the journal byte-identical
// and never comes back through recovery.
TEST_F(SnapshotTest, BudgetRejectedAddPdIsNotJournaled) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  {
    auto d = DurablePdEngine::Recover(&arena, base, Opts(/*checkpoint_every=*/0));
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_TRUE(d->AddPd(*arena.ParsePd("E <= A"), ExecContext::Unbounded()).ok());
    auto before = ReadFileBounded(journal_);
    ASSERT_TRUE(before.ok());

    // No room for a single new vertex.
    ExecContext tight;
    tight.WithMaxVertices(d->engine().vertices().size());
    Status st = d->AddPd(*arena.ParsePd("F <= A*G"), tight);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    EXPECT_EQ(*ReadFileBounded(journal_), *before);
    EXPECT_EQ(d->engine().constraints().size(), base.size() + 1);
  }

  ExprArena arena2;
  auto base2 = BaseTheory(&arena2);
  auto d = DurablePdEngine::Recover(&arena2, base2, Opts());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->recovery().journal_records, 1u);
  EXPECT_EQ(d->engine().constraints().size(), base.size() + 1);
  EXPECT_FALSE(d->engine().HasConstraint(*arena2.ParsePd("F <= A*G")));
}

// Checkpoint closes the engine before writing. A closure that trips the
// context fails the checkpoint (leaving the previous snapshot alone) but
// never the accept; an unbounded checkpoint then closes and writes, and
// the result restores to the same verdicts a cold engine reaches.
TEST_F(SnapshotTest, CheckpointClosesAnAbortedClosure) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  Pd extra = *arena.ParsePd("E <= A+C");
  {
    auto d = DurablePdEngine::Recover(&arena, base, Opts(/*checkpoint_every=*/1));
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_TRUE(d->Checkpoint(ExecContext::Unbounded()).ok());
    auto before = ReadFileBounded(snapshot_);
    ASSERT_TRUE(before.ok());

    // No room for a single new arc: any closure that grows V trips.
    ExecContext tight;
    tight.WithMaxArcs(d->engine().stats().num_arcs);
    auto verdict = d->engine().Implies(*arena.ParsePd("B*C <= A+E"), tight);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.status().code(), StatusCode::kResourceExhausted);

    Status st = d->Checkpoint(tight);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    EXPECT_EQ(*ReadFileBounded(snapshot_), *before);

    // The auto-checkpoint trips the same way; the accept still succeeds.
    st = d->AddPd(extra, tight);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(d->last_checkpoint_status().code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(*ReadFileBounded(snapshot_), *before);

    st = d->Checkpoint(ExecContext::Unbounded());
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  ExprArena arena2;
  auto base2 = BaseTheory(&arena2);
  auto d = DurablePdEngine::Recover(&arena2, base2, Opts());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->recovery().tier, RecoveryTier::kCleanRestore);
  EXPECT_EQ(d->recovery().journal_replayed_new, 0u);
  std::vector<Pd> full = base2;
  full.push_back(*arena2.ParsePd("E <= A+C"));
  PdImplicationEngine cold(&arena2, full);
  const std::vector<ExprId> verts = d->engine().vertices();
  for (std::size_t i = 0; i < verts.size(); ++i) {
    for (std::size_t j = 0; j < verts.size(); ++j) {
      EXPECT_EQ(d->engine().ImpliesLeq(verts[i], verts[j]),
                cold.ImpliesLeq(verts[i], verts[j]))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

// --- incremental AddConstraint (engine-level) ---------------------------------

TEST_F(SnapshotTest, AddConstraintMatchesFreshEngineAndFlipsAVerdict) {
  ExprArena arena;
  auto base = BaseTheory(&arena);
  Pd query = *arena.ParsePd("E <= A+C");
  PdImplicationEngine engine(&arena, base);
  bool before = engine.Implies(query);

  // Growing E must be able to flip a "not implied" verdict the closed
  // closure gave under the smaller E.
  Pd extra = *arena.ParsePd("E = E*(A+C)");  // E <= A+C, FPD-style
  engine.AddConstraint(extra);
  std::vector<Pd> full = base;
  full.push_back(extra);
  PdImplicationEngine fresh(&arena, full);
  EXPECT_EQ(engine.Implies(query), fresh.Implies(query));
  EXPECT_TRUE(engine.Implies(query));
  EXPECT_FALSE(before);

  // Idempotent: re-adding changes nothing.
  engine.AddConstraint(extra);
  EXPECT_EQ(engine.constraints().size(), full.size());
}

}  // namespace
}  // namespace psem
