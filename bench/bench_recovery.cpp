// Durability PR: warm recovery (snapshot decode + RestoreEngineState)
// versus cold recompute (closure from scratch) versus journal-only
// replay, for the same theory. All three are Theta(arcs) on the chain
// worst case — restore pays checksum + full-state validation + the
// down_-transpose rebuild, which is the price of never trusting on-disk
// bytes — so the committed baseline gates BOTH paths: a regression in
// the dense closure kernels shows up in cold, a regression in
// decode/validate shows up in warm, and the two must stay within the
// same constant factor of each other (warm recovery must never be
// asymptotically worse than recomputing).
//
// BM_Checkpoint times the write half: encoding the closed closure and
// writing the snapshot that BM_WarmRecovery reads back (ungated, no
// committed baseline yet). BM_Crc32c times the checksum alone.
//
// Workload: ChainTheory(n) (A0 <= A1 <= ... <= A(n-1)), whose closure
// holds ~n^2/2 derived arcs — the worst case for recompute and the
// densest realistic snapshot per vertex.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "psem.h"
#include "workloads.h"

namespace {

using namespace psem;
using namespace psem::bench;

std::string SnapshotPathFor(int n) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  return dir + "/psem_bench_recovery_" + std::to_string(n) + ".snap";
}

// Builds the chain theory, forces the closure, and answers the
// end-to-end query (A0 <= A(n-1), implied through n-1 hops).
void BM_ColdRecompute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  uint64_t arcs = 0;
  for (auto _ : state) {
    ExprArena arena;
    std::vector<Pd> pds = ChainTheory(&arena, n);
    PdImplicationEngine engine(&arena, pds);
    Pd query = Pd::Leq(arena.Attr("A0"),
                       arena.Attr("A" + std::to_string(n - 1)));
    bool implied = engine.Implies(query);
    if (!implied) state.SkipWithError("chain query must be implied");
    benchmark::DoNotOptimize(implied);
    arcs = engine.stats().num_arcs;
  }
  state.counters["arcs"] = static_cast<double>(arcs);
  state.SetComplexityN(n);
}
BENCHMARK(BM_ColdRecompute)->Arg(1024)->Arg(4096)->Arg(8192)
    ->Unit(benchmark::kMillisecond)->Complexity();

// Recovers the same closed engine from a snapshot written once during
// setup: read + checksum + decode + RestoreEngineState + the (now O(1))
// query. No journal — this isolates the snapshot restore path.
void BM_WarmRecovery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::string path = SnapshotPathFor(n);
  {
    ExprArena arena;
    std::vector<Pd> pds = ChainTheory(&arena, n);
    PdImplicationEngine engine(&arena, pds);
    engine.Implies(Pd::Leq(arena.Attr("A0"),
                           arena.Attr("A" + std::to_string(n - 1))));
    auto bytes = EncodeSnapshot(engine, TheoryFingerprint(arena, pds));
    if (!bytes.ok() || !AtomicWriteFile(path, *bytes).ok()) {
      state.SkipWithError("snapshot setup failed");
      return;
    }
  }
  uint64_t restored_arcs = 0;
  for (auto _ : state) {
    ExprArena arena;
    std::vector<Pd> base = ChainTheory(&arena, n);
    DurabilityOptions opts;
    opts.snapshot_path = path;
    auto durable = DurablePdEngine::Recover(&arena, std::move(base),
                                            std::move(opts));
    if (!durable.ok() ||
        durable->recovery().tier != RecoveryTier::kCleanRestore) {
      state.SkipWithError("recovery did not restore the snapshot");
      break;
    }
    Pd query = Pd::Leq(arena.Attr("A0"),
                       arena.Attr("A" + std::to_string(n - 1)));
    bool implied = durable->engine().Implies(query);
    if (!implied) state.SkipWithError("recovered closure lost the chain");
    benchmark::DoNotOptimize(implied);
    restored_arcs = durable->recovery().restored_arcs;
  }
  std::remove(path.c_str());
  state.counters["arcs"] = static_cast<double>(restored_arcs);
  state.SetComplexityN(n);
}
BENCHMARK(BM_WarmRecovery)->Arg(1024)->Arg(4096)->Arg(8192)
    ->Unit(benchmark::kMillisecond)->Complexity();

// The write half of the same snapshot: encode a closed chain engine and
// write it atomically (temp file, fsync, rename, directory fsync). Wall
// time, since the fsyncs wait on the device, not the CPU.
void BM_Checkpoint(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::string path = SnapshotPathFor(n) + ".ckpt";
  ExprArena arena;
  std::vector<Pd> pds = ChainTheory(&arena, n);
  const uint64_t fingerprint = TheoryFingerprint(arena, pds);
  PdImplicationEngine engine(&arena, pds);
  engine.Prepare({});
  std::size_t bytes_written = 0;
  for (auto _ : state) {
    auto bytes = EncodeSnapshot(engine, fingerprint);
    if (!bytes.ok() || !AtomicWriteFile(path, *bytes).ok()) {
      state.SkipWithError("checkpoint failed");
      break;
    }
    bytes_written = bytes->size();
  }
  std::remove(path.c_str());
  state.counters["bytes"] = static_cast<double>(bytes_written);
  state.SetComplexityN(n);
}
BENCHMARK(BM_Checkpoint)->Arg(1024)->Arg(4096)->Arg(8192)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Complexity();

// Journal-only recovery at the same sizes: replays every chain link
// through the incremental AddConstraint path. Sits between cold and
// warm — the cost of having journaled but never checkpointed.
void BM_JournalReplayRecovery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::string path = SnapshotPathFor(n) + ".wal";
  std::remove(path.c_str());
  {
    ExprArena arena;
    std::vector<Pd> pds = ChainTheory(&arena, n);
    auto journal = Journal::Open(path);
    if (!journal.ok()) {
      state.SkipWithError("journal setup failed");
      return;
    }
    for (const Pd& pd : pds) {
      if (!journal->Append(arena.ToString(pd)).ok()) {
        state.SkipWithError("journal append failed");
        return;
      }
    }
  }
  for (auto _ : state) {
    ExprArena arena;
    DurabilityOptions opts;
    opts.journal_path = path;
    auto durable = DurablePdEngine::Recover(&arena, {}, std::move(opts));
    if (!durable.ok() ||
        durable->recovery().journal_replayed_new !=
            static_cast<std::size_t>(n - 1)) {
      state.SkipWithError("journal replay incomplete");
      break;
    }
    Pd query = Pd::Leq(arena.Attr("A0"),
                       arena.Attr("A" + std::to_string(n - 1)));
    bool implied = durable->engine().Implies(query);
    if (!implied) state.SkipWithError("replayed closure lost the chain");
    benchmark::DoNotOptimize(implied);
  }
  std::remove(path.c_str());
  state.SetComplexityN(n);
}
BENCHMARK(BM_JournalReplayRecovery)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond)->Complexity();

// The checksum every snapshot and journal frame pays on both paths, over
// a page and over about the ROWS chunk of n = 8192 (ungated, no committed
// baseline yet).
void BM_Crc32c(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::string bytes(len, '\0');
  Rng rng(1);
  for (char& c : bytes) c = static_cast<char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(8388608);

}  // namespace
