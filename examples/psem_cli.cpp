// psem_cli — an interactive/scriptable partition-dependency reasoner.
//
// Reads commands from stdin (or from a file passed as argv[1]) and
// exercises the whole library surface: theory building, Algorithm ALG
// implication with proof extraction, countermodel search, identity
// recognition, simplification, database loading, and consistency tests.
//
//   pd C = A + B            add a partition dependency to E
//   fd A B -> C             add a functional dependency (as an FPD)
//   implies A <= C          query E |= delta (Theorem 9)
//   explain A <= C          ... with a derivation (proof extraction)
//   counter A <= C          search for a small countermodel
//   identity A*(A+B) = A    does it hold in EVERY interpretation? (Thm 10)
//   simplify A*(A+B)+C*C    identity-preserving simplification
//   relation R(A, B)        declare a relation
//   row R a b               insert a tuple
//   consistent              database consistent with E? (Theorem 12)
//   materialize             build an explicit weak instance (Lemma 12.1)
//   show                    print E and the database
//   help / quit
//
// Flags:
//   --deadline-ms <n>   per-command wall-clock budget; a command that
//                       exceeds it reports "undecided: ..." with partial
//                       stats instead of running unbounded
//   --max-arcs <n>      arc budget for the ALG closure (memory proxy)
//   --snapshot-dir <d>  durability: keep closure.snap + closure.wal in
//                       <d> (created if absent); recovery runs at startup
//                       and a summary line goes to stderr
//   --journal <path>    journal-only durability (no snapshot) at <path>;
//                       with --snapshot-dir, overrides the journal path
//   --checkpoint-every <n>  rewrite the snapshot every n accepted PDs
//                       (default 32; 0 = only the explicit 'checkpoint'
//                       command)
//
// One engine holds E for the whole session, and 'implies' reuses its warm
// closure instead of rebuilding it per query (so --max-arcs bounds that
// closure). With durability enabled, 'pd'/'fd' append to the write-ahead
// journal (fsync) before applying, so an acknowledged constraint survives
// kill -9 at any instant; without it the engine is in-memory.
//
// The process exit code distinguishes outcomes (see ExitCodeFor):
// 0 ok, 2 invalid input, 6 resource budget exhausted, 7 inconsistent
// verdict, 9 cancelled, 10 durable-artifact data loss, 11 I/O failure,
// 1 reserved for non-Status failures (e.g. an unreadable script file).
// With multiple failing commands in one script, the LAST error wins.
//
// Run: ./build/examples/psem_cli   (then type commands)
//      echo "pd A <= B\nimplies A*C <= B*C" | ./build/examples/psem_cli

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "psem.h"
#include "util/strings.h"

using namespace psem;

namespace {

struct Session {
  ExprArena arena;
  Database db;
  uint64_t deadline_ms = 0;  // 0 = no deadline
  uint64_t max_arcs = 0;     // 0 = no arc budget
  Status last_error;         // drives the process exit code
  // The session's one engine, and the only copy of E. With
  // --snapshot-dir/--journal (`durable` set) every accepted PD is
  // journaled before it is applied; without them it is in-memory.
  std::optional<DurablePdEngine> engine;
  bool durable = false;

  const std::vector<Pd>& pds() const { return engine->engine().constraints(); }

  // Fresh context per command: the deadline is relative to the command's
  // start, not the session's.
  ExecContext Ctx() const {
    ExecContext ctx;
    if (deadline_ms > 0) ctx.WithTimeout(std::chrono::milliseconds(deadline_ms));
    if (max_arcs > 0) ctx.WithMaxArcs(max_arcs);
    return ctx;
  }

  void ShowStatusError(const Status& st) {
    std::printf("error: %s\n", st.ToString().c_str());
    last_error = st;
  }

  // Partial-stats-on-timeout contract: even an aborted closure reports
  // how far it got (docs/robustness.md).
  void ShowUndecided(const Status& st, const AlgStats& stats) {
    std::printf("undecided: %s\n", st.message().c_str());
    std::printf("  partial stats: |V| = %zu, arcs = %zu, passes = %zu, "
                "aborted closures = %zu\n",
                stats.num_vertices, stats.num_arcs, stats.passes,
                stats.aborted_closures);
    last_error = st;
  }

  // Adds a constraint to E (the journal fsync, if any, happens before it
  // is applied). Returns its 1-based number in E — a new one is last, a
  // duplicate keeps the number it was first given — or 0 after reporting
  // an error. Only a duplicate pays a search of E.
  std::size_t AcceptPd(const Pd& pd) {
    const bool duplicate = engine->engine().HasConstraint(pd);
    Status st = engine->AddPd(pd, Ctx());
    if (!st.ok()) {
      ShowStatusError(st);
      return 0;
    }
    const std::vector<Pd>& e = pds();
    if (!duplicate) return e.size();
    return std::find(e.begin(), e.end(), pd) - e.begin() + 1;
  }

  void Handle(const std::string& raw) {
    std::string_view line = StripAsciiWhitespace(raw);
    if (line.empty() || line[0] == '#') return;
    auto starts = [&](const char* prefix) {
      return line.rfind(prefix, 0) == 0;
    };
    auto rest_after = [&](std::size_t n) {
      return std::string(StripAsciiWhitespace(line.substr(n)));
    };

    if (starts("pd ")) {
      auto pd = arena.ParsePd(rest_after(3));
      if (!pd.ok()) return ShowStatusError(pd.status());
      const std::size_t number = AcceptPd(*pd);
      if (number == 0) return;
      std::set<AttrId> attrs;
      arena.CollectAttrs(pd->lhs, &attrs);
      arena.CollectAttrs(pd->rhs, &attrs);
      for (AttrId a : attrs) db.universe().Intern(arena.AttrName(a));
      std::printf("E%zu: %s\n", number, arena.ToString(*pd).c_str());
    } else if (starts("fd ")) {
      auto fd = Fd::Parse(&db.universe(), rest_after(3));
      if (!fd.ok()) return ShowStatusError(fd.status());
      Pd fpd = FdToFpd(db.universe(), &arena, *fd);
      const std::size_t number = AcceptPd(fpd);
      if (number == 0) return;
      std::printf("E%zu: %s   (FPD for %s)\n", number,
                  arena.ToString(fpd).c_str(),
                  fd->ToString(db.universe()).c_str());
    } else if (starts("implies ")) {
      auto pd = arena.ParsePd(rest_after(8));
      if (!pd.ok()) return ShowStatusError(pd.status());
      // The engine stays warm across queries; only the query's new
      // vertices (and any PDs added since) are new work.
      auto verdict = engine->engine().Implies(*pd, Ctx());
      if (!verdict.ok()) {
        return ShowUndecided(verdict.status(), engine->engine().stats());
      }
      std::printf("%s\n", *verdict ? "implied" : "not implied");
    } else if (line == "checkpoint") {
      if (!durable) {
        std::printf("durability is not enabled (--snapshot-dir)\n");
        return;
      }
      Status st = engine->Checkpoint(Ctx());
      if (!st.ok()) return ShowStatusError(st);
      std::printf("checkpoint written\n");
    } else if (starts("explain ")) {
      auto pd = arena.ParsePd(rest_after(8));
      if (!pd.ok()) return ShowStatusError(pd.status());
      ProvenanceEngine prover(&arena, pds());
      auto proof = prover.Prove(*pd);
      if (!proof.ok()) {
        std::printf("not implied (%s)\n", proof.status().message().c_str());
        return;
      }
      std::printf("%s", RenderProof(arena, *proof).c_str());
    } else if (starts("counter ")) {
      auto pd = arena.ParsePd(rest_after(8));
      if (!pd.ok()) return ShowStatusError(pd.status());
      auto model = FindCounterModel(arena, pds(), *pd, /*max_population=*/4);
      if (!model) {
        std::printf("no countermodel with population <= 4 (likely implied)\n");
        return;
      }
      std::printf("countermodel over population of %zu:\n%s",
                  model->population_size,
                  model->interpretation.ToString().c_str());
    } else if (starts("identity ")) {
      auto pd = arena.ParsePd(rest_after(9));
      if (!pd.ok()) return ShowStatusError(pd.status());
      WhitmanMemo w(&arena);
      std::printf("%s\n", w.IsIdentity(*pd) ? "identity (holds everywhere)"
                                            : "not an identity");
    } else if (starts("simplify ")) {
      auto e = arena.Parse(rest_after(9));
      if (!e.ok()) return ShowStatusError(e.status());
      std::printf("%s\n", arena.ToString(SimplifyExpr(&arena, *e)).c_str());
    } else if (starts("relation ") || starts("row ")) {
      Status st = LoadDatabaseText(std::string(line), &db);
      if (!st.ok()) return ShowStatusError(st);
      std::printf("ok\n");
    } else if (starts("csvfile ")) {
      // csvfile <path> <relation-name>
      std::vector<std::string> parts = SplitAndStrip(line.substr(8), ' ');
      if (parts.size() != 2) {
        std::printf("usage: csvfile <path> <relation-name>\n");
        return;
      }
      std::ifstream f(parts[0]);
      if (!f) {
        std::printf("cannot open %s\n", parts[0].c_str());
        return;
      }
      std::stringstream buf;
      buf << f.rdbuf();
      auto ri = LoadCsvRelation(buf.str(), &db, parts[1]);
      if (!ri.ok()) return ShowStatusError(ri.status());
      std::printf("loaded %zu rows into %s\n", db.relation(*ri).size(),
                  parts[1].c_str());
    } else if (starts("discover ")) {
      auto idx = db.IndexOf(rest_after(9));
      if (!idx.ok()) return ShowStatusError(idx.status());
      const Relation& r = db.relation(*idx);
      auto fds = DiscoverFds(db, r);
      if (!fds.ok()) return ShowStatusError(fds.status());
      std::printf("minimal FDs:\n");
      for (const Fd& fd : *fds) {
        std::printf("  %s\n", fd.ToString(db.universe()).c_str());
      }
      auto patterns = DiscoverPdPatterns(db, r);
      if (!patterns.ok()) return ShowStatusError(patterns.status());
      std::printf("PD patterns:\n");
      for (const PdPattern& p : *patterns) {
        std::printf("  %s\n", p.ToString(db.universe()).c_str());
      }
    } else if (starts("query ")) {
      auto q = ConjunctiveQuery::Parse(rest_after(6));
      if (!q.ok()) return ShowStatusError(q.status());
      auto answers = EvaluateQuery(&db, *q);
      if (!answers.ok()) return ShowStatusError(answers.status());
      std::printf("%s", answers->ToString(db.universe(), db.symbols()).c_str());
    } else if (starts("analyze ")) {
      auto idx = db.IndexOf(rest_after(8));
      if (!idx.ok()) return ShowStatusError(idx.status());
      const Relation& r = db.relation(*idx);
      auto interp = CanonicalInterpretation(db, r);
      if (!interp.ok()) return ShowStatusError(interp.status());
      auto closure = InterpretationLattice(*interp, /*max_elements=*/2000);
      if (!closure.ok()) return ShowStatusError(closure.status());
      std::printf("L(I(%s)): %s\n", r.schema().name.c_str(),
                  Summarize(closure->lattice).c_str());
    } else if (line == "consistent") {
      auto report = PdConsistent(&db, arena, pds(), Ctx());
      if (!report.ok()) {
        // Keep "undecided: budget" visibly distinct from the
        // INCONSISTENT verdict below.
        if (report.status().code() == StatusCode::kResourceExhausted ||
            report.status().code() == StatusCode::kCancelled) {
          std::printf("undecided: %s\n", report.status().message().c_str());
          last_error = report.status();
          return;
        }
        return ShowStatusError(report.status());
      }
      if (!report->consistent) {
        last_error = Status::Inconsistent("database inconsistent with E");
      }
      std::printf("%s (|F| = %zu, sum-uppers = %zu, chase rounds = %zu)\n",
                  report->consistent ? "consistent" : "INCONSISTENT",
                  report->num_fpds, report->num_sum_uppers,
                  report->chase_rounds);
    } else if (line == "materialize") {
      auto m = MaterializeWeakInstance(&db, arena, pds(), /*max_rounds=*/64,
                                       Ctx());
      if (!m.ok()) return ShowStatusError(m.status());
      std::printf("weak instance (%zu rows, %zu repairs):\n%s",
                  m->instance.size(), m->added_tuples,
                  m->instance.ToString(db.universe(), db.symbols()).c_str());
    } else if (line == "show") {
      std::printf("E:\n");
      for (std::size_t i = 0; i < pds().size(); ++i) {
        std::printf("  E%zu: %s\n", i + 1, arena.ToString(pds()[i]).c_str());
      }
      std::printf("database:\n%s", DumpDatabaseText(db).c_str());
    } else if (line == "help") {
      std::printf(
          "commands: pd, fd, implies, explain, counter, identity, simplify,\n"
          "          relation, row, csvfile, discover, query, analyze,\n"
          "          consistent, materialize, checkpoint, show, quit\n");
    } else if (line == "quit" || line == "exit") {
      std::exit(ExitCodeFor(last_error.code()));
    } else {
      std::printf("unknown command (try 'help'): %s\n",
                  std::string(line).c_str());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Session session;
  std::string script_path;
  std::string snapshot_dir;
  std::string journal_path;
  uint64_t checkpoint_every = 32;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto flag_value = [&](std::string_view name,
                          uint64_t* out) -> bool {  // --name N | --name=N
      if (arg.rfind(name, 0) != 0) return false;
      std::string_view rest = arg.substr(name.size());
      const char* text = nullptr;
      if (rest.empty()) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%.*s requires a value\n",
                       static_cast<int>(name.size()), name.data());
          std::exit(1);
        }
        text = argv[++i];
      } else if (rest[0] == '=') {
        text = argv[i] + name.size() + 1;
      } else {
        return false;
      }
      char* end = nullptr;
      unsigned long long v = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') {
        std::fprintf(stderr, "invalid value for %.*s: %s\n",
                     static_cast<int>(name.size()), name.data(), text);
        std::exit(1);
      }
      *out = v;
      return true;
    };
    auto string_flag = [&](std::string_view name,
                           std::string* out) -> bool {  // --name V | --name=V
      if (arg.rfind(name, 0) != 0) return false;
      std::string_view rest = arg.substr(name.size());
      if (rest.empty()) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%.*s requires a value\n",
                       static_cast<int>(name.size()), name.data());
          std::exit(1);
        }
        *out = argv[++i];
        return true;
      }
      if (rest[0] == '=') {
        *out = std::string(rest.substr(1));
        return true;
      }
      return false;
    };
    if (flag_value("--deadline-ms", &session.deadline_ms)) continue;
    if (flag_value("--max-arcs", &session.max_arcs)) continue;
    if (flag_value("--checkpoint-every", &checkpoint_every)) continue;
    if (string_flag("--snapshot-dir", &snapshot_dir)) continue;
    if (string_flag("--journal", &journal_path)) continue;
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: psem_cli [--deadline-ms N] [--max-arcs N] "
                  "[--snapshot-dir D] [--journal PATH] "
                  "[--checkpoint-every N] [script]\n");
      return 0;
    }
    if (!script_path.empty()) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 1;
    }
    script_path = arg;
  }

  // No durability flags: no artifact paths, so Recover builds a plain
  // in-memory engine.
  DurabilityOptions opts;
  session.durable = !snapshot_dir.empty() || !journal_path.empty();
  if (!snapshot_dir.empty()) {
    ::mkdir(snapshot_dir.c_str(), 0777);  // best effort; Recover reports
    opts.snapshot_path = snapshot_dir + "/closure.snap";
    if (journal_path.empty()) journal_path = snapshot_dir + "/closure.wal";
  }
  opts.journal_path = journal_path;
  opts.checkpoint_every = static_cast<std::size_t>(checkpoint_every);
  auto recovered = DurablePdEngine::Recover(&session.arena, {},
                                            std::move(opts), session.Ctx());
  if (!recovered.ok()) {
    // A hard recovery failure (e.g. corrupt journal header) must not be
    // papered over: refusing to start beats silently dropping accepted
    // constraints.
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return ExitCodeFor(recovered.status().code());
  }
  session.engine.emplace(std::move(*recovered));
  if (session.durable) {
    const RecoveryStats& rs = session.engine->recovery();
    // stderr so scripted stdout stays byte-comparable with a
    // durability-free run of the same commands.
    std::fprintf(stderr,
                 "recovery: tier=%s constraints=%zu journal_records=%zu "
                 "replayed=%zu snapshot_vertices=%zu snapshot_arcs=%llu%s%s\n",
                 RecoveryTierName(rs.tier), session.pds().size(),
                 rs.journal_records, rs.journal_replayed_new,
                 rs.restored_vertices,
                 static_cast<unsigned long long>(rs.restored_arcs),
                 rs.snapshot_error.empty() ? "" : " snapshot_error=",
                 rs.snapshot_error.c_str());
    for (const Pd& pd : session.pds()) {
      std::set<AttrId> attrs;
      session.arena.CollectAttrs(pd.lhs, &attrs);
      session.arena.CollectAttrs(pd.rhs, &attrs);
      for (AttrId a : attrs) {
        session.db.universe().Intern(session.arena.AttrName(a));
      }
    }
  }

  std::istream* in = &std::cin;
  std::ifstream file;
  if (!script_path.empty()) {
    file.open(script_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", script_path.c_str());
      return 1;
    }
    in = &file;
  }
  bool interactive = script_path.empty() && isatty(0);
  if (interactive) {
    std::printf("psem reasoner — type 'help' for commands\n");
  }
  std::string line;
  while (true) {
    if (interactive) std::printf("> ");
    if (!std::getline(*in, line)) break;
    session.Handle(line);
  }
  return ExitCodeFor(session.last_error.code());
}
