#include "epoch.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>

#include "core/csv.h"
#include "core/fpd.h"
#include "core/implication.h"
#include "core/snapshot.h"
#include "discovery/discovery.h"
#include "relational/relation.h"
#include "util/durable_file.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using psem::AlgStats;
using psem::Database;
using psem::DurabilityOptions;
using psem::DurablePdEngine;
using psem::ExecContext;
using psem::ExprArena;
using psem::Pd;
using psem::PdImplicationEngine;
using psem::RecoveryTier;
using psem::Result;
using psem::Status;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                         : 0;
}

double Mean(const SpanTotals& t) {
  return t.calls == 0 ? 0.0 : t.total_s / static_cast<double>(t.calls);
}

const char* RootName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery: return "op.query";
    case OpKind::kQueryNew: return "op.query_new";
    case OpKind::kWrite: return "op.write";
    case OpKind::kBatch: return "op.batch";
  }
  return "op.unknown";
}

// One query answered during the stream.
struct Logged {
  std::string text;
  Expect expect;
  bool verdict;
  std::size_t op;             // index of the op that asked it
  std::size_t writes_before;  // write ops that ran before it
};

class Epoch {
 public:
  Epoch(const Plan& plan, uint64_t seed, const std::string& dir, bool traced)
      : plan_(plan),
        seed_(seed),
        snapshot_path_(plan.snapshot ? dir + "/closure.snap" : ""),
        journal_path_(dir + "/pd.journal"),
        op_failed_(plan.ops.size() + 1, false) {
    std::filesystem::create_directories(dir);
    std::filesystem::remove(journal_path_);
    if (plan.snapshot) std::filesystem::remove(snapshot_path_);
    options_.snapshot_path = snapshot_path_;
    options_.journal_path = journal_path_;
    // Checkpoints are the benchmark's own ops (see Stream), so each one is
    // a span of its own rather than hidden inside AddPd.
    options_.checkpoint_every = 0;
    tracer_.set_enabled(traced);
  }

  EpochResult Run() {
    if (!Setup()) {
      res_.attempted = res_.failed = 1;
      return std::move(res_);
    }
    Stream();
    Recover();
    {
      Untraced quiet(&tracer_);
      CheckRecovered();
      CheckCold();
    }
    if (tracer_.enabled()) Breakdown();
    Finish();
    return std::move(res_);
  }

 private:
  // Checks run with tracing paused: they are not part of any op.
  class Untraced {
   public:
    explicit Untraced(Tracer* t) : t_(t), was_(t->enabled()) {
      t_->set_enabled(false);
    }
    ~Untraced() { t_->set_enabled(was_); }
    Untraced(const Untraced&) = delete;
    Untraced& operator=(const Untraced&) = delete;

   private:
    Tracer* t_;
    bool was_;
  };

  static constexpr std::size_t kRecoverOp = ~std::size_t{0};

  void Fail(std::size_t op, const std::string& what) {
    if (failures_++ < 20) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    op_failed_[op == kRecoverOp ? plan_.ops.size() : op] = true;
  }

  // A ParsePd call the benchmark times and counts.
  std::optional<Pd> Parse(ExprArena* arena, const std::string& text,
                          std::size_t op) {
    ++parse_calls_;
    Result<Pd> pd = [&] {
      Scope s(&tracer_, "lattice.parse");
      return arena->ParsePd(text);
    }();
    if (!pd.ok()) {
      Fail(op, "parse '" + text + "': " + pd.status().ToString());
      return std::nullopt;
    }
    return *pd;
  }

  // Parsing for the checks: neither timed nor counted.
  static std::vector<Pd> ParseAll(ExprArena* arena,
                                  const std::vector<std::string>& texts) {
    std::vector<Pd> out;
    out.reserve(texts.size());
    for (const std::string& t : texts) out.push_back(*arena->ParsePd(t));
    return out;
  }

  std::vector<std::string> LoggedTexts() const {
    std::vector<std::string> texts;
    texts.reserve(logged_.size());
    for (const Logged& l : logged_) texts.push_back(l.text);
    return texts;
  }

  // E as the set of its rendered PDs. Rendering drops redundant
  // parentheses, so a recovered engine can hold one PD twice in two
  // groupings; recovery.duplicate_constraints counts those.
  static std::vector<std::string> RenderE(const PdImplicationEngine& eng) {
    std::vector<std::string> e;
    for (const Pd& pd : eng.constraints()) e.push_back(eng.arena().ToString(pd));
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
    return e;
  }

  uint64_t Closures() const {
    const AlgStats& s = engine_->engine().stats();
    return s.cold_closures + s.incremental_closures;
  }

  // sparse_rounds / dense_rounds describe only the most recent closure, so
  // they are summed call by call whenever a call ran one.
  void NoteClosures(uint64_t before, uint64_t* sparse, uint64_t* dense) {
    if (Closures() == before) return;
    *sparse += engine_->engine().stats().sparse_rounds;
    *dense += engine_->engine().stats().dense_rounds;
  }

  bool CheckpointNow() {
    Status st;
    {
      Scope s(&tracer_, "snapshot.checkpoint");
      st = engine_->Checkpoint(ExecContext::Unbounded());
    }
    return st.ok();
  }

  bool Setup() {
    const auto t0 = Clock::now();
    {
      Scope root(&tracer_, "setup.epoch");
      if (!plan_.csv.empty() && !Mine()) return false;
      arena_ = std::make_unique<ExprArena>();
      std::vector<Pd> base;
      for (const std::string& line : plan_.base) {
        std::optional<Pd> pd = Parse(arena_.get(), line, kRecoverOp);
        if (!pd) return false;
        base.push_back(*pd);
        accepted_text_bytes_ += line.size();
      }
      {
        Scope s(&tracer_, "snapshot.recover");
        Result<DurablePdEngine> d =
            DurablePdEngine::Recover(arena_.get(), std::move(base), options_);
        if (!d.ok()) {
          Fail(kRecoverOp, "set-up recover: " + d.status().ToString());
          return false;
        }
        engine_.emplace(std::move(*d));
      }
      // csv-discover's durable bulk accept: one fsynced record per PD.
      for (const std::string& line : mined_) {
        std::optional<Pd> pd = Parse(arena_.get(), line, kRecoverOp);
        if (!pd) return false;
        const std::size_t before = engine_->engine().constraints().size();
        Status st;
        {
          Scope s(&tracer_, "snapshot.add_pd");
          st = engine_->AddPd(*pd, ExecContext::Unbounded());
        }
        if (!st.ok()) {
          Fail(kRecoverOp, "bulk accept: " + st.ToString());
          return false;
        }
        if (engine_->engine().constraints().size() > before) {
          accepted_text_bytes_ += line.size();
        }
      }
      const uint64_t c0 = Closures();
      {
        Scope s(&tracer_, "implication.prepare");
        engine_->engine().Prepare({});
      }
      NoteClosures(c0, &setup_sparse_, &setup_dense_);
      if (plan_.snapshot && !CheckpointNow()) {
        Fail(kRecoverOp, "set-up checkpoint failed");
        return false;
      }
    }
    res_.setup_s = Since(t0);
    if (plan_.snapshot) {
      ++checkpoints_;
      checkpoint_bytes_ += FileSize(snapshot_path_);
    }
    return true;
  }

  // Loads the CSV, mines FDs and PD patterns, and renders them as PD lines.
  bool Mine() {
    Database db;
    Result<std::size_t> rel = [&] {
      Scope s(&tracer_, "csv.load");
      return psem::LoadCsvRelation(plan_.csv, &db);
    }();
    if (!rel.ok()) {
      Fail(kRecoverOp, "csv load: " + rel.status().ToString());
      return false;
    }
    const psem::Relation& r = db.relation(*rel);
    auto fds = [&] {
      Scope s(&tracer_, "discovery.fds");
      return psem::DiscoverFds(db, r);
    }();
    auto patterns = [&] {
      Scope s(&tracer_, "discovery.patterns");
      return psem::DiscoverPdPatterns(db, r);
    }();
    if (!fds.ok() || !patterns.ok()) {
      Fail(kRecoverOp, "discovery failed");
      return false;
    }
    {
      Scope s(&tracer_, "fpd.encode");
      ExprArena scratch;
      for (const Pd& pd : psem::FdsToFpds(db.universe(), &scratch, *fds)) {
        mined_.push_back(scratch.ToString(pd));
      }
      for (const psem::PdPattern& p : *patterns) {
        mined_.push_back(p.ToString(db.universe()));
      }
    }
    res_.counts["csv.rows"] = static_cast<double>(r.size());
    res_.counts["discovery.fds"] = static_cast<double>(fds->size());
    res_.counts["discovery.patterns"] = static_cast<double>(patterns->size());
    return true;
  }

  void Stream() {
    PdImplicationEngine& eng = engine_->engine();
    const std::size_t cadence = DurabilityOptions{}.checkpoint_every;
    const AlgStats before = eng.stats();
    uint64_t accepted_writes = 0;
    uint64_t journal = FileSize(journal_path_);
    uint64_t snapshot = FileSize(snapshot_path_);
    uint32_t digest = 2166136261u;  // FNV-1a over the verdict bits

    for (std::size_t k = 0; k < plan_.ops.size(); ++k) {
      const Op& op = plan_.ops[k];
      tracer_.set_op(static_cast<uint32_t>(k + 1));
      std::vector<bool> verdicts;
      bool ok = true, accepted = false, checkpointed = false;
      const uint64_t c0 = Closures();
      const auto t0 = Clock::now();
      {
        Scope root(&tracer_, RootName(op.kind));
        switch (op.kind) {
          case OpKind::kQuery:
          case OpKind::kQueryNew: {
            std::optional<Pd> pd = Parse(arena_.get(), op.texts[0], k);
            if (!pd) {
              ok = false;
              break;
            }
            Scope s(&tracer_, "implication.implies");
            verdicts.push_back(eng.Implies(*pd));
            break;
          }
          case OpKind::kWrite: {
            std::optional<Pd> pd = Parse(arena_.get(), op.texts[0], k);
            if (!pd) {
              ok = false;
              break;
            }
            const std::size_t n0 = eng.constraints().size();
            Status st;
            {
              Scope s(&tracer_, "snapshot.add_pd");
              st = engine_->AddPd(*pd, ExecContext::Unbounded());
            }
            if (!st.ok()) {
              ok = false;
              break;
            }
            {
              Scope s(&tracer_, "implication.prepare");
              eng.Prepare({});
            }
            accepted = eng.constraints().size() > n0;
            // The library's default cadence, as an op-visible checkpoint.
            if (accepted && plan_.snapshot && ++accepted_writes % cadence == 0) {
              checkpointed = true;
              ok = CheckpointNow();
            }
            break;
          }
          case OpKind::kBatch: {
            std::vector<Pd> pds;
            pds.reserve(op.texts.size());
            for (const std::string& t : op.texts) {
              std::optional<Pd> pd = Parse(arena_.get(), t, k);
              if (!pd) {
                ok = false;
                break;
              }
              pds.push_back(*pd);
            }
            if (!ok) break;
            Scope s(&tracer_, "implication.batch");
            verdicts = eng.BatchImplies(pds);
            break;
          }
        }
      }
      const double dt = Since(t0);

      // Untimed bookkeeping.
      NoteClosures(c0, &sparse_rounds_, &dense_rounds_);
      res_.latency[static_cast<int>(op.kind)].push_back(dt);
      if (op.kind == OpKind::kBatch) {
        res_.batch_per_query.push_back(dt / static_cast<double>(op.texts.size()));
      }
      res_.stream_s += dt;
      ++res_.stream_ops;
      if (!ok) {
        Fail(k, std::string(OpKindName(op.kind)) + " op " + std::to_string(k) +
                    " failed");
        continue;
      }
      if (op.kind == OpKind::kWrite) {
        writes_.push_back(op.texts[0]);
        if (accepted) accepted_text_bytes_ += op.texts[0].size();
      }
      for (std::size_t i = 0; i < verdicts.size(); ++i) {
        const bool v = verdicts[i];
        logged_.push_back(Logged{op.texts[i], op.expect[i], v, k, writes_.size()});
        CheckExpect(op.expect[i], v, k, op.texts[i], "stream");
        digest = (digest ^ (v ? 1u : 0u)) * 16777619u;
        implied_ += v;
      }
      const uint64_t j = FileSize(journal_path_), s = FileSize(snapshot_path_);
      if (op.kind != OpKind::kWrite && (j != journal || s != snapshot)) {
        Fail(k, "a read op changed the durable files");
      }
      if (checkpointed) {
        ++checkpoints_;
        checkpoint_bytes_ += s;
      }
      journal = j;
      snapshot = s;
    }

    const AlgStats& after = eng.stats();
    auto& c = res_.counts;
    c["implication.incremental_closures"] =
        double(after.incremental_closures - before.incremental_closures);
    c["implication.cold_closures"] =
        double(after.cold_closures - before.cold_closures);
    c["implication.cache_lookups"] =
        double(after.cache_lookups - before.cache_lookups);
    c["implication.cache_hit_ratio"] =
        after.cache_lookups == before.cache_lookups
            ? 0.0
            : double(after.cache_hits - before.cache_hits) /
                  double(after.cache_lookups - before.cache_lookups);
    c["implication.vertices"] = double(after.num_vertices);
    c["implication.arcs"] = double(after.num_arcs);
    c["check.verdict_digest"] = double(digest);
    res_.layers["implication.rules_s"] =
        after.rules_seconds - before.rules_seconds;
    res_.layers["implication.transpose_s"] =
        after.transpose_seconds - before.transpose_seconds;
    res_.layers["implication.seed_s"] = after.seed_seconds - before.seed_seconds;
  }

  void CheckExpect(Expect expect, bool verdict, std::size_t op,
                   const std::string& text, const char* where) {
    if (expect == Expect::kNone || verdict == (expect == Expect::kImplied)) {
      return;
    }
    Fail(op, std::string(where) + ": '" + text + "' answered " +
                 (verdict ? "implied" : "not implied") + " against the oracle");
  }

  // The recover op: drop the engine, then Recover + the first Implies.
  void Recover() {
    if (logged_.empty()) return Fail(kRecoverOp, "no query was answered");
    {
      // Untimed: every logged query re-asked of the live engine, and E.
      Untraced quiet(&tracer_);
      std::vector<Pd> pds = ParseAll(arena_.get(), LoggedTexts());
      final_ = engine_->engine().BatchImplies(pds);
      final_e_ = RenderE(engine_->engine());
    }
    res_.counts["theory.constraints"] =
        double(engine_->engine().constraints().size());
    res_.counts["snapshot.journal_bytes"] = double(FileSize(journal_path_));
    res_.counts["snapshot.snapshot_bytes"] = double(FileSize(snapshot_path_));
    engine_.reset();
    arena_.reset();

    tracer_.set_op(static_cast<uint32_t>(plan_.ops.size() + 1));
    std::optional<bool> probe;
    const auto t0 = Clock::now();
    {
      Scope root(&tracer_, "op.recover");
      arena_ = std::make_unique<ExprArena>();
      std::vector<Pd> base;
      for (const std::string& line : plan_.base) {
        std::optional<Pd> pd = Parse(arena_.get(), line, kRecoverOp);
        if (pd) base.push_back(*pd);
      }
      Result<DurablePdEngine> d = [&] {
        Scope s(&tracer_, "snapshot.recover");
        return DurablePdEngine::Recover(arena_.get(), std::move(base), options_);
      }();
      if (d.ok()) {
        engine_.emplace(std::move(*d));
        std::optional<Pd> pd = Parse(arena_.get(), logged_[0].text, kRecoverOp);
        if (pd) {
          Scope s(&tracer_, "implication.implies");
          probe = engine_->engine().Implies(*pd);
        }
      } else {
        Fail(kRecoverOp, "recover: " + d.status().ToString());
      }
    }
    res_.recover_s = Since(t0);
    // Counted up to here: the breakdown's parses run in traced epochs only.
    res_.counts["lattice.parse_calls"] = double(parse_calls_);
    if (!engine_) return;
    if (probe != bool(final_[0])) {
      Fail(kRecoverOp, "recovered probe verdict differs");
    }
    const psem::RecoveryStats& rs = engine_->recovery();
    const RecoveryTier want =
        plan_.snapshot ? RecoveryTier::kCleanRestore : RecoveryTier::kColdStart;
    if (rs.tier != want) {
      Fail(kRecoverOp, std::string("recovery tier ") +
                           psem::RecoveryTierName(rs.tier));
    }
    res_.counts["recovery.journal_records"] = double(rs.journal_records);
    res_.counts["recovery.replayed_new"] = double(rs.journal_replayed_new);
  }

  // Recovery differential: same E, same verdict on every logged query.
  void CheckRecovered() {
    if (!engine_) return;
    const std::vector<std::string> e = RenderE(engine_->engine());
    res_.counts["recovery.duplicate_constraints"] =
        double(engine_->engine().constraints().size() - e.size());
    if (e != final_e_) {
      std::vector<std::string> lost, gained;
      std::set_difference(final_e_.begin(), final_e_.end(), e.begin(), e.end(),
                          std::back_inserter(lost));
      std::set_difference(e.begin(), e.end(), final_e_.begin(), final_e_.end(),
                          std::back_inserter(gained));
      Fail(kRecoverOp, "recovered E differs from the E before the drop: " +
                           std::to_string(final_e_.size()) + " vs " +
                           std::to_string(e.size()) + " constraints, first lost '" +
                           (lost.empty() ? "" : lost[0]) + "', first gained '" +
                           (gained.empty() ? "" : gained[0]) + "'");
    }
    std::vector<Pd> pds = ParseAll(arena_.get(), LoggedTexts());
    std::vector<bool> recovered = engine_->engine().BatchImplies(pds);
    for (std::size_t i = 0; i < logged_.size(); ++i) {
      const Logged& l = logged_[i];
      if (recovered[i] != final_[i]) {
        Fail(kRecoverOp, "recovered verdict differs on '" + l.text + "'");
      }
      CheckExpect(l.expect, final_[i], l.op, l.text, "final");
      // E only grows: implied stays implied, and nothing changes after
      // the last write.
      if (l.verdict && !final_[i]) Fail(l.op, "implied verdict lost: " + l.text);
      if (l.writes_before == writes_.size() && l.verdict != final_[i]) {
        Fail(l.op, "verdict after the last write differs: " + l.text);
      }
    }
  }

  // A fresh cold engine over `lines` answers `sample` logged queries.
  void CheckAgainstCold(const std::vector<std::string>& lines,
                        const std::vector<std::size_t>& sample,
                        bool against_final) {
    ExprArena arena;
    PdImplicationEngine cold(&arena, ParseAll(&arena, lines));
    for (std::size_t i : sample) {
      const Logged& l = logged_[i];
      const bool want = against_final ? final_[i] : l.verdict;
      if (cold.Implies(*arena.ParsePd(l.text)) != want) {
        Fail(l.op, "cold engine disagrees on '" + l.text + "'");
      }
    }
  }

  void CheckCold() {
    if (logged_.empty()) return;
    psem::Rng rng(seed_ ^ 0x5eed0c01du);
    if (plan_.cold_sample > 0) {
      std::vector<std::size_t> sample;
      for (std::size_t s = 0; s < plan_.cold_sample; ++s) {
        sample.push_back(rng.Below(logged_.size()));
      }
      CheckAgainstCold(final_e_, sample, /*against_final=*/true);
    }
    // A stream verdict was given under a prefix of E: rebuild exactly that
    // prefix and ask again.
    for (std::size_t s = 0; s < plan_.prefix_checks; ++s) {
      const std::size_t i = rng.Below(logged_.size());
      std::vector<std::string> lines = plan_.base;
      lines.insert(lines.end(), mined_.begin(), mined_.end());
      lines.insert(lines.end(), writes_.begin(),
                   writes_.begin() + logged_[i].writes_before);
      CheckAgainstCold(lines, {i}, /*against_final=*/false);
    }
  }

  // The recovery stages, each on its own, over the same files. Only in
  // traced epochs: the stage times are per-layer numbers.
  void Breakdown() {
    if (logged_.empty()) return;
    engine_.reset();
    arena_.reset();
    tracer_.set_op(static_cast<uint32_t>(plan_.ops.size() + 2));
    ExprArena arena;
    Scope root(&tracer_, "breakdown.recovery");
    std::vector<Pd> base;
    {
      Scope s(&tracer_, "recovery.base_parse");
      for (const std::string& line : plan_.base) {
        if (auto pd = Parse(&arena, line, kRecoverOp)) base.push_back(*pd);
      }
    }
    std::unique_ptr<PdImplicationEngine> eng;
    if (plan_.snapshot) {
      Result<std::string> bytes = [&] {
        Scope s(&tracer_, "recovery.read");
        return psem::ReadFileBounded(snapshot_path_, options_.limits);
      }();
      if (!bytes.ok()) return Fail(kRecoverOp, "breakdown read failed");
      Result<psem::DecodedSnapshot> snap = [&] {
        Scope s(&tracer_, "recovery.decode");
        return psem::DecodeSnapshot(*bytes, &arena, options_.limits);
      }();
      if (!snap.ok()) return Fail(kRecoverOp, "breakdown decode failed");
      Scope s(&tracer_, "recovery.restore");
      eng = std::make_unique<PdImplicationEngine>(&arena, std::vector<Pd>{},
                                                  options_.engine);
      Status st = eng->RestoreEngineState(snap->vertices,
                                          std::move(snap->constraints),
                                          std::move(snap->state));
      if (!st.ok()) return Fail(kRecoverOp, "breakdown restore failed");
    } else {
      Scope s(&tracer_, "recovery.restore");
      eng = std::make_unique<PdImplicationEngine>(&arena, base, options_.engine);
    }
    {
      Scope s(&tracer_, "recovery.replay");
      Result<psem::Journal> journal =
          psem::Journal::Open(journal_path_, options_.limits);
      if (!journal.ok()) return Fail(kRecoverOp, "breakdown journal open failed");
      for (const std::string& record : journal->recovered().records) {
        std::optional<Pd> pd = Parse(&arena, record, kRecoverOp);
        if (!pd) return;
        const auto& e = eng->constraints();
        if (std::find(e.begin(), e.end(), *pd) == e.end()) {
          Scope a(&tracer_, "implication.add_constraint");
          eng->AddConstraint(*pd);
        }
      }
    }
    std::optional<bool> probe;
    {
      Scope s(&tracer_, "recovery.first_close");
      if (auto pd = Parse(&arena, logged_[0].text, kRecoverOp)) {
        Scope c(&tracer_, "implication.implies");
        probe = eng->Implies(*pd);
      }
    }
    if (probe != bool(final_[0]) ||
        RenderE(*eng) != final_e_) {
      Fail(kRecoverOp, "breakdown recovery disagrees with the recover op");
    }
  }

  void Finish() {
    auto& c = res_.counts;
    c["implication.sparse_rounds"] = double(sparse_rounds_);
    c["implication.dense_rounds"] = double(dense_rounds_);
    c["implication.setup_sparse_rounds"] = double(setup_sparse_);
    c["implication.setup_dense_rounds"] = double(setup_dense_);
    c["snapshot.checkpoints"] = double(checkpoints_);
    c["snapshot.checkpoint_bytes"] = double(checkpoint_bytes_);
    c["bytes.accepted_text"] = double(accepted_text_bytes_);
    c["stream.ops"] = double(res_.stream_ops);
    c["stream.queries"] = double(logged_.size());
    c["stream.implied_ratio"] =
        logged_.empty() ? 0.0 : double(implied_) / double(logged_.size());

    res_.attempted = plan_.ops.size() + 1;
    res_.failed = static_cast<uint64_t>(
        std::count(op_failed_.begin(), op_failed_.end(), true));
    if (!tracer_.enabled()) return;

    const std::vector<Span>& spans = tracer_.spans();
    const SpanSummary sum = SummarizeSpans(spans);
    auto get = [&](const char* root, const char* name) {
      auto it = sum.find({root, name});
      return it == sum.end() ? SpanTotals{} : it->second;
    };
    SpanTotals parse;
    for (const auto& [key, t] : sum) {
      if (key.second == "lattice.parse") {
        parse.calls += t.calls;
        parse.total_s += t.total_s;
      }
    }
    SpanTotals checkpoint = get("setup.epoch", "snapshot.checkpoint");
    const SpanTotals stream_ckpt = get("op.write", "snapshot.checkpoint");
    checkpoint.calls += stream_ckpt.calls;
    checkpoint.total_s += stream_ckpt.total_s;

    auto& l = res_.layers;
    l["lattice.parse_us"] = Mean(parse) * 1e6;
    l["implication.implies_us"] = Mean(get("op.query", "implication.implies")) * 1e6;
    l["implication.implies_new_ms"] =
        Mean(get("op.query_new", "implication.implies")) * 1e3;
    l["implication.prepare_ms"] = Mean(get("op.write", "implication.prepare")) * 1e3;
    l["implication.batch_ms"] = Mean(get("op.batch", "implication.batch")) * 1e3;
    l["implication.closure_cold_s"] =
        get("setup.epoch", "implication.prepare").total_s;
    l["snapshot.add_pd_us"] = Mean(get("op.write", "snapshot.add_pd")) * 1e6;
    l["snapshot.checkpoint_ms"] = Mean(checkpoint) * 1e3;
    l["csv.load_s"] = get("setup.epoch", "csv.load").total_s;
    l["discovery.fds_s"] = get("setup.epoch", "discovery.fds").total_s;
    l["discovery.patterns_s"] = get("setup.epoch", "discovery.patterns").total_s;
    l["fpd.encode_ms"] = get("setup.epoch", "fpd.encode").total_s * 1e3;

    double covered = 0.0;
    for (const char* stage :
         {"recovery.base_parse", "recovery.read", "recovery.decode",
          "recovery.restore", "recovery.replay", "recovery.first_close"}) {
      const double ms = get("breakdown.recovery", stage).total_s * 1e3;
      l[std::string(stage) + "_ms"] = ms;
      covered += ms;
    }
    l["recovery.total_ms"] = res_.recover_s * 1e3;
    l["recovery.uncovered_ms"] = res_.recover_s * 1e3 - covered;

    // Self-time shares: of all op time, and of set-up time.
    for (const auto& [prefix, suffix] :
         {std::pair<const char*, const char*>{"op.", ".ops_share"},
          {"setup.", ".setup_share"}}) {
      std::map<std::string, double> self = LayerSelfTimes(spans, prefix);
      double total = 0.0;
      for (const auto& [layer, s] : self) total += s;
      for (const auto& [layer, s] : self) {
        // The root spans' own self time is the benchmark's overhead.
        const std::string name =
            layer == "op" || layer == "setup" ? "bench" : layer;
        l["self." + name + suffix] = total > 0 ? s / total : 0.0;
      }
    }
    res_.spans = spans;
  }

  const Plan& plan_;
  const uint64_t seed_;
  const std::string snapshot_path_;
  const std::string journal_path_;
  DurabilityOptions options_;
  Tracer tracer_;
  EpochResult res_;

  // The engine points into the arena: declared after it, destroyed first.
  std::unique_ptr<ExprArena> arena_;
  std::optional<DurablePdEngine> engine_;

  std::vector<std::string> mined_;   // csv-discover's mined PD lines
  std::vector<std::string> writes_;  // write-op lines, in stream order
  std::vector<Logged> logged_;
  std::vector<bool> final_;          // live verdicts before the drop
  std::vector<std::string> final_e_; // rendered E before the drop, sorted
  std::vector<bool> op_failed_;      // per stream op, then the recover op
  uint64_t failures_ = 0;
  uint64_t implied_ = 0;
  uint64_t accepted_text_bytes_ = 0;
  uint64_t checkpoints_ = 0, checkpoint_bytes_ = 0;
  uint64_t parse_calls_ = 0;
  uint64_t sparse_rounds_ = 0, dense_rounds_ = 0;
  uint64_t setup_sparse_ = 0, setup_dense_ = 0;
};

}  // namespace

EpochResult RunEpoch(const Plan& plan, uint64_t seed, const std::string& dir,
                     bool traced) {
  return Epoch(plan, seed, dir, traced).Run();
}

}  // namespace perfbench
