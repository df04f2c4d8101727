// Fault-injection tests: the FailPoints facility itself, plus a matrix
// over every registered site proving the contract — an injected fault
// surfaces as a clean non-OK Status (never a crash, never a silent wrong
// answer), and after disarming, the same operation re-run on the same
// object yields the verdict a cold, fault-free run gives.
//
// All tests skip at runtime when the build compiles the sites out
// (PSEM_FAILPOINTS=OFF, the Release default).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "chase/tableau.h"
#include "consistency/cad.h"
#include "consistency/nae3sat.h"
#include "consistency/repair.h"
#include "core/implication.h"
#include "util/durable_file.h"
#include "util/exec_context.h"
#include "util/failpoint.h"

namespace psem {
namespace {

#define SKIP_WITHOUT_FAILPOINTS()                                     \
  if (!FailPoints::Enabled()) {                                       \
    GTEST_SKIP() << "fail points compiled out (PSEM_FAILPOINTS=OFF)"; \
  }

class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::DisarmAll(); }
};

TEST_F(FailPointTest, CatalogListsEverySite) {
  auto catalog = FailPoints::Catalog();
  EXPECT_EQ(catalog.size(), 11u);
  auto has = [&](const char* site) {
    for (const char* s : catalog) {
      if (std::string(s) == site) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(failpoints::kAlgSeedAlloc));
  EXPECT_TRUE(has(failpoints::kAlgSweep));
  EXPECT_TRUE(has(failpoints::kChaseRound));
  EXPECT_TRUE(has(failpoints::kRepairRound));
  EXPECT_TRUE(has(failpoints::kNaeSearch));
  EXPECT_TRUE(has(failpoints::kCadSearch));
  EXPECT_TRUE(has(failpoints::kIoTornWrite));
  EXPECT_TRUE(has(failpoints::kIoShortRead));
  EXPECT_TRUE(has(failpoints::kIoBitFlip));
  EXPECT_TRUE(has(failpoints::kIoFsync));
  EXPECT_TRUE(has(failpoints::kIoRename));
}

TEST_F(FailPointTest, ArmFireCountSemantics) {
  SKIP_WITHOUT_FAILPOINTS();
  const char* site = failpoints::kAlgSweep;
  EXPECT_FALSE(FailPoints::Fire(site));  // unarmed: never fires
  FailPoints::Arm(site, 2);
  EXPECT_TRUE(FailPoints::Fire(site));
  EXPECT_TRUE(FailPoints::Fire(site));
  EXPECT_FALSE(FailPoints::Fire(site));  // count exhausted
  EXPECT_EQ(FailPoints::FireCount(site), 2u);
  FailPoints::Arm(site);  // -1: every execution
  EXPECT_TRUE(FailPoints::Fire(site));
  EXPECT_TRUE(FailPoints::Fire(site));
  FailPoints::Disarm(site);
  EXPECT_FALSE(FailPoints::Fire(site));
}

// --- matrix: one scenario per site -------------------------------------------

std::vector<Pd> SmallTheory(ExprArena* arena) {
  return {*arena->ParsePd("A*B <= C"), *arena->ParsePd("C <= D+E"),
          *arena->ParsePd("D = A+B")};
}

TEST_F(FailPointTest, AlgSeedAllocSurfacesAndEngineRecovers) {
  SKIP_WITHOUT_FAILPOINTS();
  ExprArena arena;
  auto pds = SmallTheory(&arena);
  Pd query = *arena.ParsePd("A*B <= D+E");
  PdImplicationEngine cold(&arena, pds);
  bool expected = cold.Implies(query);

  PdImplicationEngine engine(&arena, pds);
  FailPoints::Arm(failpoints::kAlgSeedAlloc, 1);
  auto r = engine.Implies(query, ExecContext::Unbounded());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("seed_alloc"), std::string::npos);
  EXPECT_GE(engine.stats().aborted_closures, 1u);

  FailPoints::DisarmAll();
  auto retry = engine.Implies(query, ExecContext::Unbounded());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(*retry, expected);
}

TEST_F(FailPointTest, AlgSweepSurfacesAndEngineRecovers) {
  SKIP_WITHOUT_FAILPOINTS();
  ExprArena arena;
  auto pds = SmallTheory(&arena);
  Pd query = *arena.ParsePd("A*B <= D+E");
  PdImplicationEngine cold(&arena, pds);
  bool expected = cold.Implies(query);

  PdImplicationEngine engine(&arena, pds);
  FailPoints::Arm(failpoints::kAlgSweep, 1);
  auto r = engine.Implies(query, ExecContext::Unbounded());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("sweep"), std::string::npos);

  FailPoints::DisarmAll();
  // The partially swept matrix is a sound warm start: the retry converges
  // to the same least fixpoint as the cold engine.
  auto retry = engine.Implies(query, ExecContext::Unbounded());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(*retry, expected);
}

TEST_F(FailPointTest, ChaseRoundSurfacesAndRechaseMatchesCold) {
  SKIP_WITHOUT_FAILPOINTS();
  Database db;
  std::size_t e = db.AddRelation("enrolled", {"Student", "Course"});
  db.relation(e).AddRow(&db.symbols(), {"ann", "db101"});
  db.relation(e).AddRow(&db.symbols(), {"bob", "db101"});
  std::size_t t = db.AddRelation("taught_by", {"Course", "Prof"});
  db.relation(t).AddRow(&db.symbols(), {"db101", "codd"});
  std::vector<Fd> fds = {*Fd::Parse(&db.universe(), "Course -> Prof")};

  Tableau cold_t = Tableau::Representative(db, db.universe().size());
  ChaseResult cold = ChaseWithFds(&cold_t, fds);
  ASSERT_TRUE(cold.status.ok());

  FailPoints::Arm(failpoints::kChaseRound, 1);
  Tableau tab = Tableau::Representative(db, db.universe().size());
  ChaseResult injected = ChaseWithFds(&tab, fds);
  ASSERT_FALSE(injected.status.ok());
  EXPECT_EQ(injected.status.code(), StatusCode::kInternal);

  FailPoints::DisarmAll();
  ChaseResult resumed = ChaseWithFds(&tab, fds);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.consistent, cold.consistent);
}

TEST_F(FailPointTest, RepairRoundSurfacesCleanly) {
  SKIP_WITHOUT_FAILPOINTS();
  Database db;
  std::size_t t = db.AddRelation("taught_by", {"Course", "Prof"});
  db.relation(t).AddRow(&db.symbols(), {"db101", "codd"});
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("Course <= Prof")};

  FailPoints::Arm(failpoints::kRepairRound, 1);
  auto r = MaterializeWeakInstance(&db, arena, pds);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("repair"), std::string::npos);

  FailPoints::DisarmAll();
  Database db2;
  std::size_t t2 = db2.AddRelation("taught_by", {"Course", "Prof"});
  db2.relation(t2).AddRow(&db2.symbols(), {"db101", "codd"});
  auto retry = MaterializeWeakInstance(&db2, arena, pds);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(FailPointTest, NaeSearchSurfacesAsUndecidedInternal) {
  SKIP_WITHOUT_FAILPOINTS();
  NaeFormula f = NaeFormula::Parse("1 2 3; -1 -2 -3");
  NaeSolveResult cold = NaeSolve(f);
  ASSERT_TRUE(cold.decided);

  FailPoints::Arm(failpoints::kNaeSearch, 1);
  NaeSolveResult injected = NaeSolve(f);
  ASSERT_FALSE(injected.decided);
  EXPECT_EQ(injected.status.code(), StatusCode::kInternal);

  FailPoints::DisarmAll();
  NaeSolveResult retry = NaeSolve(f);
  ASSERT_TRUE(retry.decided);
  EXPECT_EQ(retry.assignment.has_value(), cold.assignment.has_value());
}

TEST_F(FailPointTest, CadSearchSurfacesAsUndecidedInternal) {
  SKIP_WITHOUT_FAILPOINTS();
  Database db;
  std::size_t t = db.AddRelation("taught_by", {"Course", "Prof"});
  db.relation(t).AddRow(&db.symbols(), {"db101", "codd"});
  std::vector<Fd> fds = {*Fd::Parse(&db.universe(), "Course -> Prof")};
  CadResult cold = CadConsistent(db, fds);
  ASSERT_TRUE(cold.decided);

  FailPoints::Arm(failpoints::kCadSearch, 1);
  CadResult injected = CadConsistent(db, fds);
  ASSERT_FALSE(injected.decided);
  EXPECT_EQ(injected.status.code(), StatusCode::kInternal);

  FailPoints::DisarmAll();
  CadResult retry = CadConsistent(db, fds);
  ASSERT_TRUE(retry.decided);
  EXPECT_EQ(retry.consistent, cold.consistent);
}

// --- durable-I/O sites --------------------------------------------------------
// Same contract, one layer down: an injected physical fault surfaces as a
// clean non-OK Status, the durable artifact is never half-updated, and
// after disarming the same operation succeeds with the same bytes a
// fault-free run produces.

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/psem_failpoint_" + name;
}

TEST_F(FailPointTest, IoTornWriteLeavesDestinationUntouched) {
  SKIP_WITHOUT_FAILPOINTS();
  const std::string path = TempPath("torn_write.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "old-content").ok());

  FailPoints::Arm(failpoints::kIoTornWrite, 1);
  Status st = AtomicWriteFile(path, "new-content-that-tears");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // Atomicity: the tear hit the temp file; the destination still reads
  // back the previous content in full.
  auto after = ReadFileBounded(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, "old-content");

  FailPoints::DisarmAll();
  ASSERT_TRUE(AtomicWriteFile(path, "new-content-that-tears").ok());
  EXPECT_EQ(*ReadFileBounded(path), "new-content-that-tears");
  ::remove(path.c_str());
}

TEST_F(FailPointTest, IoFsyncFailsAtomicWriteCleanly) {
  SKIP_WITHOUT_FAILPOINTS();
  const std::string path = TempPath("fsync.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "durable").ok());

  FailPoints::Arm(failpoints::kIoFsync, 1);
  Status st = AtomicWriteFile(path, "lost-on-power-cut");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(*ReadFileBounded(path), "durable");

  FailPoints::DisarmAll();
  ASSERT_TRUE(AtomicWriteFile(path, "lost-on-power-cut").ok());
  EXPECT_EQ(*ReadFileBounded(path), "lost-on-power-cut");
  ::remove(path.c_str());
}

TEST_F(FailPointTest, IoRenameFailsAtomicWriteCleanly) {
  SKIP_WITHOUT_FAILPOINTS();
  const std::string path = TempPath("rename.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "v1").ok());

  FailPoints::Arm(failpoints::kIoRename, 1);
  Status st = AtomicWriteFile(path, "v2");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(*ReadFileBounded(path), "v1");

  FailPoints::DisarmAll();
  ASSERT_TRUE(AtomicWriteFile(path, "v2").ok());
  EXPECT_EQ(*ReadFileBounded(path), "v2");
  ::remove(path.c_str());
}

TEST_F(FailPointTest, IoShortReadDetectedByFramingThenRecovers) {
  SKIP_WITHOUT_FAILPOINTS();
  const std::string path = TempPath("short_read.bin");
  std::vector<Chunk> chunks = {Chunk{ChunkTag("TEST"), "payload-bytes"}};
  ASSERT_TRUE(AtomicWriteFile(path, EncodeChunkContainer(1, chunks)).ok());

  // A decoded container borrows its input: keep each read in a buffer
  // that outlives the container.
  FailPoints::Arm(failpoints::kIoShortRead, 1);
  const std::string torn_bytes = *ReadFileBounded(path);
  auto torn = DecodeChunkContainer(torn_bytes);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);

  FailPoints::DisarmAll();
  const std::string bytes = *ReadFileBounded(path);
  auto clean = DecodeChunkContainer(bytes);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->chunks.size(), 1u);
  EXPECT_EQ(clean->chunks[0].payload, "payload-bytes");
  ::remove(path.c_str());
}

TEST_F(FailPointTest, IoBitFlipCaughtByChecksumThenRecovers) {
  SKIP_WITHOUT_FAILPOINTS();
  const std::string path = TempPath("bit_flip.bin");
  std::vector<Chunk> chunks = {Chunk{ChunkTag("TEST"), "payload-bytes"}};
  ASSERT_TRUE(AtomicWriteFile(path, EncodeChunkContainer(1, chunks)).ok());

  FailPoints::Arm(failpoints::kIoBitFlip, 1);
  const std::string flipped_bytes = *ReadFileBounded(path);
  auto flipped = DecodeChunkContainer(flipped_bytes);
  ASSERT_FALSE(flipped.ok());
  EXPECT_EQ(flipped.status().code(), StatusCode::kDataLoss);

  FailPoints::DisarmAll();
  const std::string bytes = *ReadFileBounded(path);
  auto clean = DecodeChunkContainer(bytes);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->chunks.size(), 1u);
  EXPECT_EQ(clean->chunks[0].payload, "payload-bytes");
  ::remove(path.c_str());
}

TEST_F(FailPointTest, EverySiteHasAMatrixScenario) {
  // Meta-check: a new failpoint added to the catalog without a matrix
  // scenario above must fail this count, forcing the test to grow.
  EXPECT_EQ(FailPoints::Catalog().size(), 11u)
      << "new fail point registered: add a matrix scenario to this file";
}

}  // namespace
}  // namespace psem
