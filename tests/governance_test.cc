// Execution-governance tests: every governed loop (ALG closure — cold
// and incremental — the Whitman deciders, the chase, the repair loop,
// and the NAE/CAD searches) must (a) surface a tripped deadline,
// cancellation, or budget as the documented StatusCode, and (b) leave its
// object fully usable: re-asking with a fresh context yields the same
// verdict a cold engine gives.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "chase/tableau.h"
#include "consistency/cad.h"
#include "consistency/nae3sat.h"
#include "consistency/pd_consistency.h"
#include "consistency/repair.h"
#include "core/implication.h"
#include "lattice/whitman.h"
#include "util/exec_context.h"

namespace psem {
namespace {

using std::chrono::milliseconds;

ExecContext Expired() {
  ExecContext ctx;
  ctx.WithDeadline(ExecContext::Clock::now() - milliseconds(1));
  return ctx;
}

ExecContext Cancelled() {
  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.WithCancelToken(token);
  return ctx;
}

std::vector<Pd> ChainTheory(ExprArena* arena, int n) {
  // A_i * A_{i+1} <= A_{i+2}: enough distinct subexpressions to make the
  // closure do real work without being slow.
  std::vector<Pd> pds;
  for (int i = 0; i + 2 < n; ++i) {
    std::string s = "A" + std::to_string(i) + "*A" + std::to_string(i + 1) +
                    " <= A" + std::to_string(i + 2);
    pds.push_back(*arena->ParsePd(s));
  }
  return pds;
}

// --- ALG closure: deadline / cancel / budgets -------------------------------

TEST(GovernanceClosureTest, ExpiredDeadlineSurfacesAndEngineStaysUsable) {
  ExprArena arena;
  auto pds = ChainTheory(&arena, 12);
  Pd query = *arena.ParsePd("A0*A1 <= A11");

  PdImplicationEngine cold(&arena, pds);
  bool expected = cold.Implies(query);

  PdImplicationEngine engine(&arena, pds);
  auto r = engine.Implies(query, Expired());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  // Contract: the engine is left valid; the same query with an unbounded
  // context resumes from the partial closure and matches the cold engine.
  auto retry = engine.Implies(query, ExecContext::Unbounded());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(*retry, expected);
  EXPECT_EQ(engine.Implies(query), expected);  // legacy path too
}

TEST(GovernanceClosureTest, CancellationIsReportedAsCancelled) {
  ExprArena arena;
  auto pds = ChainTheory(&arena, 10);
  Pd query = *arena.ParsePd("A0 <= A9");
  PdImplicationEngine engine(&arena, pds);
  auto r = engine.Implies(query, Cancelled());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  // Resetting the token (or using a fresh context) makes the same engine
  // answer correctly.
  CancelToken token;
  ExecContext ctx;
  ctx.WithCancelToken(token);
  auto retry = engine.Implies(query, ctx);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  PdImplicationEngine cold(&arena, pds);
  EXPECT_EQ(*retry, cold.Implies(query));
}

TEST(GovernanceClosureTest, MidClosureCancelFromAnotherThread) {
  // A genuinely concurrent cancel: a second thread flips the token while
  // the closure sweeps. Whether the cancel lands before or after the
  // fixpoint finishes is timing-dependent, but both outcomes have a
  // fixed contract — a kCancelled error or the correct verdict, and the
  // engine answers correctly afterward either way.
  ExprArena arena;
  auto pds = ChainTheory(&arena, 120);
  Pd query = *arena.ParsePd("A0*A1 <= A119");
  PdImplicationEngine cold(&arena, pds);
  bool expected = cold.Implies(query);

  PdImplicationEngine engine(&arena, pds);
  CancelToken token;
  ExecContext ctx;
  ctx.WithCancelToken(token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    token.Cancel();
  });
  auto r = engine.Implies(query, ctx);
  canceller.join();
  if (r.ok()) {
    EXPECT_EQ(*r, expected);  // closure beat the cancel
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
  auto retry = engine.Implies(query, ExecContext::Unbounded());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(*retry, expected);
}

TEST(GovernanceClosureTest, VertexBudgetRejectsBeforeMutating) {
  ExprArena arena;
  auto pds = ChainTheory(&arena, 10);
  PdImplicationEngine engine(&arena, pds);
  std::size_t v_before = engine.stats().num_vertices;

  ExecContext ctx;
  ctx.WithMaxVertices(1);  // far below the constraints' own |V|
  auto r = engine.Implies(*arena.ParsePd("A0 <= A9"), ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("vertex budget"), std::string::npos);
  // The rejected query must not have grown V.
  EXPECT_EQ(engine.stats().num_vertices, v_before);

  PdImplicationEngine cold(&arena, pds);
  EXPECT_EQ(engine.Implies(*arena.ParsePd("A0 <= A9")),
            cold.Implies(*arena.ParsePd("A0 <= A9")));
}

TEST(GovernanceClosureTest, ArcBudgetTripsMidClosure) {
  ExprArena arena;
  auto pds = ChainTheory(&arena, 14);
  Pd query = *arena.ParsePd("A0*A1 <= A13");

  PdImplicationEngine engine(&arena, pds);
  ExecContext ctx;
  ctx.WithMaxArcs(1);  // any closure exceeds one arc immediately
  auto r = engine.Implies(query, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("arc budget"), std::string::npos);
  // The budget tripped mid-closure: the abort is accounted and the
  // partial arc matrix is kept as a warm start.
  EXPECT_GE(engine.stats().aborted_closures, 1u);

  PdImplicationEngine cold(&arena, pds);
  auto retry = engine.Implies(query, ExecContext::Unbounded());
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, cold.Implies(query));
}

TEST(GovernanceClosureTest, IncrementalClosureIsGovernedToo) {
  ExprArena arena;
  auto pds = ChainTheory(&arena, 12);
  PdImplicationEngine engine(&arena, pds);
  // Warm the engine: full closure over the constraints.
  ASSERT_TRUE(engine.Implies(*arena.ParsePd("A0 <= A1"), ExecContext::Unbounded()).ok());
  ASSERT_TRUE(engine.stats().cold_closures >= 1);

  // A query with fresh subexpressions triggers the incremental path; an
  // expired deadline must stop it cleanly.
  Pd fresh = *arena.ParsePd("A0*A2*A4 <= A5+A7");
  auto r = engine.Implies(fresh, Expired());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  PdImplicationEngine cold(&arena, pds);
  auto retry = engine.Implies(fresh, ExecContext::Unbounded());
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, cold.Implies(fresh));
  EXPECT_GE(engine.stats().incremental_closures, 1u);
}

// --- batch: failures are per-query, not collective --------------------------

TEST(GovernanceBatchTest, VertexBudgetFailsOnlyTheOffendingQuery) {
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("A <= B")};
  // Budget: room for the constraint vertices plus the small queries, but
  // not for the deep one.
  ExecContext ctx;
  ctx.WithMaxVertices(8);

  std::string deep = "A";
  for (int i = 0; i < 40; ++i) deep = "(" + deep + "*C" + std::to_string(i) + ")";
  std::vector<Pd> queries = {*arena.ParsePd("A <= B"),
                             *arena.ParsePd(deep + " <= B"),
                             *arena.ParsePd("A*B <= B")};

  PdImplicationEngine engine(&arena, pds);
  auto results = engine.BatchImplies(queries, ctx);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_TRUE(*results[0]);
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(results[2].ok()) << results[2].status().ToString();

  // Per-query verdicts match an ungoverned cold engine.
  PdImplicationEngine cold(&arena, pds);
  EXPECT_EQ(*results[0], cold.Implies(queries[0]));
  EXPECT_EQ(*results[2], cold.Implies(queries[2]));
}

TEST(GovernanceBatchTest, DeadlineFailsPendingQueriesKeepsCachedOnes) {
  ExprArena arena;
  auto pds = ChainTheory(&arena, 10);
  Pd q0 = *arena.ParsePd("A0 <= A9");
  Pd q1 = *arena.ParsePd("A1*A2 <= A9");

  PdImplicationEngine engine(&arena, pds);
  bool v0 = engine.Implies(q0);  // warms the cache for q0

  std::vector<Pd> queries = {q0, q1};
  auto results = engine.BatchImplies(queries, Expired());
  ASSERT_EQ(results.size(), 2u);
  // q0 was answerable from the cache without touching the closure.
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0], v0);
  // q1's subexpressions may already be covered by the warm closure (in
  // which case it is answered without recomputing) or may require the
  // expired-deadline closure. Accept either a verdict matching the cold
  // engine or a clean deadline error — never a crash or a wrong verdict.
  PdImplicationEngine cold(&arena, pds);
  if (results[1].ok()) {
    EXPECT_EQ(*results[1], cold.Implies(q1));
  } else {
    EXPECT_EQ(results[1].status().code(), StatusCode::kResourceExhausted);
  }
}

// --- Whitman deciders --------------------------------------------------------

TEST(GovernanceWhitmanTest, DepthBudgetTripsOnDeepTerms) {
  ExprArena arena;
  std::string deep = "A";
  for (int i = 0; i < 200; ++i) deep = "(" + deep + "*B)";
  ExprId p = *arena.Parse(deep);
  ExprId q = *arena.Parse("A*B");

  ExecContext ctx;
  ctx.WithMaxDepth(10);
  WhitmanMemo memo(&arena);
  auto r = memo.LeqChecked(p, q, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("depth"), std::string::npos);

  // After the trip the decider still answers correctly (fresh context).
  auto full = memo.LeqChecked(p, q, ExecContext::Unbounded());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, memo.Leq(p, q));

  WhitmanIterative iter(&arena);
  auto ri = iter.LeqChecked(p, q, ctx);
  ASSERT_FALSE(ri.ok());
  EXPECT_EQ(ri.status().code(), StatusCode::kResourceExhausted);
  auto fi = iter.LeqChecked(p, q, ExecContext::Unbounded());
  ASSERT_TRUE(fi.ok());
  EXPECT_EQ(*fi, iter.Leq(p, q));
}

TEST(GovernanceWhitmanTest, UnboundedCheckedMatchesLegacyEverywhere) {
  ExprArena arena;
  WhitmanMemo memo(&arena);
  WhitmanIterative iter(&arena);
  const char* cases[][2] = {{"A*B", "A"},       {"A", "A+B"},
                            {"A*(B+C)", "A*B+A*C"}, {"A*B+A*C", "A*(B+C)"},
                            {"(A+B)*(A+C)", "A+B*C"}};
  for (const auto& c : cases) {
    ExprId p = *arena.Parse(c[0]);
    ExprId q = *arena.Parse(c[1]);
    EXPECT_EQ(*memo.LeqChecked(p, q), memo.Leq(p, q)) << c[0] << " <= " << c[1];
    EXPECT_EQ(*iter.LeqChecked(p, q), iter.Leq(p, q)) << c[0] << " <= " << c[1];
  }
}

// --- chase -------------------------------------------------------------------

Database FragmentedUniversityDb() {
  Database db;
  std::size_t e = db.AddRelation("enrolled", {"Student", "Course"});
  db.relation(e).AddRow(&db.symbols(), {"ann", "db101"});
  db.relation(e).AddRow(&db.symbols(), {"bob", "db101"});
  std::size_t t = db.AddRelation("taught_by", {"Course", "Prof"});
  db.relation(t).AddRow(&db.symbols(), {"db101", "codd"});
  return db;
}

TEST(GovernanceChaseTest, DeadlineStopsChaseAndRechaseConverges) {
  Database db = FragmentedUniversityDb();
  std::vector<Fd> fds = {*Fd::Parse(&db.universe(), "Course -> Prof"),
                         *Fd::Parse(&db.universe(), "Student -> Course")};

  Tableau t = Tableau::Representative(db, db.universe().size());
  ChaseResult aborted = ChaseWithFds(&t, fds, Expired());
  ASSERT_FALSE(aborted.status.ok());
  EXPECT_EQ(aborted.status.code(), StatusCode::kResourceExhausted);

  // The partially chased tableau holds only sound merges: re-chasing it
  // reaches the same verdict as a cold chase.
  Tableau cold_t = Tableau::Representative(db, db.universe().size());
  ChaseResult cold = ChaseWithFds(&cold_t, fds);
  ASSERT_TRUE(cold.status.ok());
  ChaseResult resumed = ChaseWithFds(&t, fds);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.consistent, cold.consistent);
}

TEST(GovernanceChaseTest, RoundBudgetTrips) {
  Database db = FragmentedUniversityDb();
  std::vector<Fd> fds = {*Fd::Parse(&db.universe(), "Course -> Prof"),
                         *Fd::Parse(&db.universe(), "Student -> Course")};
  // This chase performs merges, so it needs at least two full passes
  // (one that merges + one that verifies the fixpoint).
  Tableau cold_t = Tableau::Representative(db, db.universe().size());
  ChaseResult cold = ChaseWithFds(&cold_t, fds);
  ASSERT_GE(cold.rounds, 2u);

  ExecContext ctx;
  ctx.WithMaxRounds(1);
  Tableau t = Tableau::Representative(db, db.universe().size());
  ChaseResult r = ChaseWithFds(&t, fds, ctx);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status.message().find("round budget"), std::string::npos);
}

TEST(GovernanceChaseTest, WeakInstanceConsistentCheckedMatchesLegacy) {
  Database db = FragmentedUniversityDb();
  std::vector<Fd> fds = {*Fd::Parse(&db.universe(), "Course -> Prof")};
  bool legacy = WeakInstanceConsistent(db, fds);
  auto checked =
      WeakInstanceConsistentChecked(db, fds, 0, ExecContext::Unbounded());
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(*checked, legacy);

  auto aborted = WeakInstanceConsistentChecked(db, fds, 0, Expired());
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);
}

// --- repair loop -------------------------------------------------------------

TEST(GovernanceRepairTest, DeadlineAndCancelStopMaterialization) {
  Database db = FragmentedUniversityDb();
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("Course <= Prof")};

  auto ok = MaterializeWeakInstance(&db, arena, pds);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  Database db2 = FragmentedUniversityDb();
  auto dead = MaterializeWeakInstance(&db2, arena, pds, 64, Expired());
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kResourceExhausted);

  Database db3 = FragmentedUniversityDb();
  auto cancel = MaterializeWeakInstance(&db3, arena, pds, 64, Cancelled());
  ASSERT_FALSE(cancel.ok());
  EXPECT_EQ(cancel.status().code(), StatusCode::kCancelled);
}

TEST(GovernanceRepairTest, PdConsistentHonorsDeadline) {
  Database db = FragmentedUniversityDb();
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("Course <= Prof")};
  auto cold = PdConsistent(&db, arena, pds);
  ASSERT_TRUE(cold.ok());

  auto dead = PdConsistent(&db, arena, pds, Expired());
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kResourceExhausted);

  // The database was not harmed: the unbounded call still succeeds and
  // agrees with the cold verdict.
  auto again = PdConsistent(&db, arena, pds);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->consistent, cold->consistent);
}

// --- NAE / CAD searches ------------------------------------------------------

TEST(GovernanceNaeTest, NodeBudgetYieldsUndecidedWithStatus) {
  NaeFormula f = RandomNae3(24, 90, 7);
  ExecContext ctx;
  ctx.WithMaxSolverNodes(2);
  NaeSolveResult r = NaeSolve(f, UINT64_MAX, ctx);
  ASSERT_FALSE(r.decided);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(r.assignment.has_value());

  // Legacy budget parameter reports the same way.
  NaeSolveResult r2 = NaeSolve(f, 2);
  ASSERT_FALSE(r2.decided);
  EXPECT_EQ(r2.status.code(), StatusCode::kResourceExhausted);

  // Unbudgeted, the formula is decidable and status is OK.
  NaeSolveResult full = NaeSolve(f);
  EXPECT_TRUE(full.decided);
  EXPECT_TRUE(full.status.ok());
}

TEST(GovernanceNaeTest, EffectiveBudgetIsTheMinimum) {
  NaeFormula f = RandomNae3(24, 90, 7);
  ExecContext ctx;
  ctx.WithMaxSolverNodes(1000000);
  NaeSolveResult r = NaeSolve(f, 2, ctx);  // the explicit 2 must win
  EXPECT_FALSE(r.decided);
  EXPECT_LE(r.nodes, 3u);
}

TEST(GovernanceCadTest, UndecidedByBudgetIsDistinctFromInconsistent) {
  // The Office -> Prof CAD example: decidable (inconsistent) without a
  // budget, undecided with a one-node budget.
  Database db;
  std::size_t to = db.AddRelation("taught_by", {"Course", "Prof"});
  db.relation(to).AddRow(&db.symbols(), {"db101", "codd"});
  db.relation(to).AddRow(&db.symbols(), {"ml201", "pearl"});
  std::size_t of = db.AddRelation("office_of", {"Prof", "Office"});
  db.relation(of).AddRow(&db.symbols(), {"codd", "r32"});
  std::vector<Fd> fds = {*Fd::Parse(&db.universe(), "Course -> Prof"),
                         *Fd::Parse(&db.universe(), "Prof -> Office"),
                         *Fd::Parse(&db.universe(), "Office -> Prof")};

  CadResult full = CadConsistent(db, fds);
  ASSERT_TRUE(full.decided);
  EXPECT_TRUE(full.status.ok());  // a verdict — even INCONSISTENT — is not
                                  // an error
  EXPECT_FALSE(full.consistent);

  CadResult budget = CadConsistent(db, fds, 1);
  ASSERT_FALSE(budget.decided);
  EXPECT_EQ(budget.status.code(), StatusCode::kResourceExhausted);

  ExecContext ctx;
  ctx.WithMaxSolverNodes(1);
  CadResult ctx_budget = CadConsistent(db, fds, UINT64_MAX, ctx);
  ASSERT_FALSE(ctx_budget.decided);
  EXPECT_EQ(ctx_budget.status.code(), StatusCode::kResourceExhausted);

  CadResult cancelled = CadConsistent(db, fds, UINT64_MAX, Cancelled());
  ASSERT_FALSE(cancelled.decided);
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace psem
