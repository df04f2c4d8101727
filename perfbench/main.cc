// psem end-to-end benchmark binary.
//
//   psem_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR [--trace-out FILE]
//   psem_perfbench --list
//
// Runs whole epochs of one workload (set-up, op stream, recover; see
// epoch.h) back to back until S seconds have passed, one client thread,
// the engine's default serial closure. Epoch e draws its inputs from seed
// N + e * 2^32. With --trace 0 it prints the end-to-end metrics, pooled or
// taken as medians over the epochs. With --trace 1 it runs every plan
// twice, untraced then traced, and prints the per-layer metrics of the
// traced epochs plus the tracing overhead. The last line of stdout is one
// JSON object: correct, attempted, failed, metrics. Any failed or wrong
// op, or counts that differ between two runs of one plan, make the exit
// code nonzero.

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "epoch.h"
#include "trace.h"
#include "workloads.h"

#ifndef PSEM_BUILD_TYPE
#define PSEM_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Hard stop for the epoch loop, whatever --seconds says.
constexpr double kMaxLoopSeconds = 150.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
  bool list = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--list") {
      a->list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return a->list || (!a->workload.empty() && !a->workdir.empty());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - double(lo)) * (v[hi] - v[lo]);
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string FsType(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x65735546: return "fuse";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, static_cast<uint64_t>(st.f_type));
  return buf;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

// Two fixed probes of the machine's speed at the time of the run, printed
// with the result so that a drifting host shows in the record: a
// register-only integer loop, and a dependent pointer chase through 16 MiB
// (larger than most last-level caches).
struct MachineRef {
  double alu_ns;  ///< per loop iteration.
  double mem_ns;  ///< per dependent load.
};

MachineRef ProbeMachine() {
  MachineRef ref{};
  uint64_t h = 1;
  constexpr int kAluIters = 20'000'000;
  auto t0 = Clock::now();
  for (int i = 0; i < kAluIters; ++i) h = h * 6364136223846793005ull + 1442695040888963407ull;
  ref.alu_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kAluIters;
  // Sattolo's algorithm: one cycle through every slot.
  std::vector<uint32_t> next(1u << 22);
  for (uint32_t i = 0; i < next.size(); ++i) next[i] = i;
  uint64_t x = 0x2545f4914f6cdd1dull ^ h;
  for (uint32_t i = static_cast<uint32_t>(next.size()) - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  constexpr int kLoads = 1'000'000;
  uint32_t at = 0;
  t0 = Clock::now();
  for (int i = 0; i < kLoads; ++i) at = next[at];
  ref.mem_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kLoads;
  if (at == 0xffffffffu) std::printf("#\n");  // keeps the chase observable
  return ref;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample counts, shown only in the readable lines
};

// Per-layer metrics: name, unit, and whether the value is a count (taken
// from the epochs' identical counts) or a timing (median over the traced
// epochs). The list matches BENCHMARK.json's per_layer section.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool count;
};
const LayerMetric kLayerMetrics[] = {
    {"lattice.parse_us", "us", false},
    {"lattice.parse_calls", "count", true},
    {"implication.implies_us", "us", false},
    {"implication.implies_new_ms", "ms", false},
    {"implication.prepare_ms", "ms", false},
    {"implication.batch_ms", "ms", false},
    {"implication.closure_cold_s", "s", false},
    {"implication.sparse_rounds", "count", true},
    {"implication.dense_rounds", "count", true},
    {"implication.setup_sparse_rounds", "count", true},
    {"implication.setup_dense_rounds", "count", true},
    {"implication.incremental_closures", "count", true},
    {"implication.cold_closures", "count", true},
    {"implication.rules_s", "s", false},
    {"implication.transpose_s", "s", false},
    {"implication.seed_s", "s", false},
    {"implication.vertices", "count", true},
    {"implication.arcs", "count", true},
    {"implication.cache_hit_ratio", "ratio", true},
    {"implication.cache_lookups", "count", true},
    {"snapshot.add_pd_us", "us", false},
    {"snapshot.checkpoint_ms", "ms", false},
    {"snapshot.checkpoints", "count", true},
    {"snapshot.checkpoint_bytes", "bytes", true},
    {"snapshot.journal_bytes", "bytes", true},
    {"snapshot.snapshot_bytes", "bytes", true},
    {"recovery.base_parse_ms", "ms", false},
    {"recovery.read_ms", "ms", false},
    {"recovery.decode_ms", "ms", false},
    {"recovery.restore_ms", "ms", false},
    {"recovery.replay_ms", "ms", false},
    {"recovery.first_close_ms", "ms", false},
    {"recovery.total_ms", "ms", false},
    {"recovery.uncovered_ms", "ms", false},
    {"recovery.journal_records", "count", true},
    {"recovery.replayed_new", "count", true},
    {"recovery.duplicate_constraints", "count", true},
    {"csv.load_s", "s", false},
    {"csv.rows", "count", true},
    {"discovery.fds_s", "s", false},
    {"discovery.patterns_s", "s", false},
    {"discovery.fds", "count", true},
    {"discovery.patterns", "count", true},
    {"fpd.encode_ms", "ms", false},
    {"self.bench.ops_share", "ratio", false},
    {"self.lattice.ops_share", "ratio", false},
    {"self.implication.ops_share", "ratio", false},
    {"self.snapshot.ops_share", "ratio", false},
    {"self.bench.setup_share", "ratio", false},
    {"self.lattice.setup_share", "ratio", false},
    {"self.implication.setup_share", "ratio", false},
    {"self.snapshot.setup_share", "ratio", false},
    {"self.csv.setup_share", "ratio", false},
    {"self.discovery.setup_share", "ratio", false},
    {"self.fpd.setup_share", "ratio", false},
    {"stream.ops", "count", true},
    {"stream.queries", "count", true},
    {"stream.implied_ratio", "ratio", true},
    {"theory.constraints", "count", true},
    {"bytes.accepted_text", "bytes", true},
    {"check.verdict_digest", "count", true},
};

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

int Run(const Args& args) {
  const WorkloadDef* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Numbers from an unoptimized build are not comparable; refuse them.
  if (std::strncmp(PSEM_BUILD_TYPE, "Rel", 3) != 0) {
    std::fprintf(stderr, "refusing to record from a %s build\n",
                 PSEM_BUILD_TYPE);
    return 2;
  }
  const auto start = Clock::now();
  std::vector<EpochResult> untraced, traced;
  std::vector<double> overhead;
  std::map<std::string, double> counts;
  uint64_t attempted = 0, failed = 0;
  for (uint64_t e = 0;; ++e) {
    // Each epoch draws fresh inputs from its own seed, so a run pools more
    // distinct inputs; epoch 0 uses --seed itself and gives the counts.
    const Plan plan = w->make(args.seed + (e << 32));
    EpochResult r = RunEpoch(plan, args.seed, args.workdir, false);
    attempted += r.attempted;
    failed += r.failed;
    if (e == 0) counts = r.counts;
    if (args.trace && failed == 0) {
      // The same plan again, traced: per-layer numbers, and the tracing
      // overhead as the ratio of the two epochs' wall times.
      EpochResult t = RunEpoch(plan, args.seed, args.workdir, true);
      attempted += t.attempted;
      failed += t.failed;
      if (t.counts != r.counts) {
        ++failed;
        std::fprintf(stderr, "FAIL: counts differ between two runs of one plan\n");
      }
      overhead.push_back((t.setup_s + t.stream_s + t.recover_s) /
                         (r.setup_s + r.stream_s + r.recover_s));
      traced.push_back(std::move(t));
    }
    untraced.push_back(std::move(r));
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    // Untraced runs time at least three epochs after the warm-up epoch.
    const std::size_t min_epochs = args.trace ? 1 : 4;
    if (failed > 0 || elapsed > kMaxLoopSeconds) break;
    if (elapsed >= args.seconds && untraced.size() >= min_epochs) break;
  }
  const bool correct = failed == 0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Latencies pool the ops of every timed epoch: each epoch draws fresh
    // inputs, and a run's cost varies more between epochs than within one,
    // so the pooled percentile of all ops is steadier than a median of
    // per-epoch percentiles. Set-up, recover and throughput are medians
    // over the timed epochs. Epoch 0 warms the process (heap, page cache,
    // code) and is checked and counted, not timed.
    const std::size_t first = untraced.size() > 1 ? 1 : 0;
    std::vector<double> setup, recover, ops_rate, lat[kNumOpKinds], batch;
    double written = 0, on_disk = 0, text = 0;
    for (std::size_t e = 0; e < untraced.size(); ++e) {
      const EpochResult& r = untraced[e];
      const auto& c = r.counts;
      written += c.at("snapshot.journal_bytes") + c.at("snapshot.checkpoint_bytes");
      on_disk += c.at("snapshot.journal_bytes") + c.at("snapshot.snapshot_bytes");
      text += c.at("bytes.accepted_text");
      if (e < first) continue;
      setup.push_back(r.setup_s);
      recover.push_back(r.recover_s);
      ops_rate.push_back(double(r.stream_ops) / r.stream_s);
      for (int k = 0; k < kNumOpKinds; ++k) {
        lat[k].insert(lat[k].end(), r.latency[k].begin(), r.latency[k].end());
      }
      batch.insert(batch.end(), r.batch_per_query.begin(),
                   r.batch_per_query.end());
    }
    auto pct = [&](OpKind kind, double p) {
      return Percentile(lat[static_cast<int>(kind)], p);
    };
    auto note = [&](OpKind k, const char* p) {
      return std::string(p) + " of " +
             std::to_string(lat[static_cast<int>(k)].size()) + " ops";
    };
    const std::string epochs =
        "median of " + std::to_string(untraced.size() - first) + " epochs";
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"setup_s", Median(setup), "s", epochs},
        {"ops_per_s", Median(ops_rate), "1/s", epochs + ", ops / busy stream time"},
        {"query_p50_us", pct(OpKind::kQuery, 50) * 1e6, "us", note(OpKind::kQuery, "p50")},
        {"query_p99_us", pct(OpKind::kQuery, 99) * 1e6, "us", note(OpKind::kQuery, "p99")},
        {"query_new_p50_ms", pct(OpKind::kQueryNew, 50) * 1e3, "ms", note(OpKind::kQueryNew, "p50")},
        {"query_new_p90_ms", pct(OpKind::kQueryNew, 90) * 1e3, "ms", note(OpKind::kQueryNew, "p90")},
        {"write_p50_ms", pct(OpKind::kWrite, 50) * 1e3, "ms", note(OpKind::kWrite, "p50")},
        {"write_p90_ms", pct(OpKind::kWrite, 90) * 1e3, "ms", note(OpKind::kWrite, "p90")},
        {"batch_us_per_query", Median(batch) * 1e6, "us",
         "median of " + std::to_string(batch.size()) + " batches"},
        {"recover_s", Median(recover), "s", epochs},
        {"write_amp", written / std::max(1.0, text), "ratio",
         "journal + snapshot bytes written / accepted PD text bytes, all epochs"},
        {"space_amp", on_disk / std::max(1.0, text), "ratio",
         "final on-disk bytes / accepted PD text bytes, all epochs"},
        {"peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB", "whole process"},
        {"verified_ratio",
         attempted == 0 ? 0.0 : double(attempted - std::min(failed, attempted)) / double(attempted),
         "ratio", "ops answered and verified / ops attempted"},
    };
  } else {
    std::map<std::string, std::vector<double>> layer_values;
    for (const EpochResult& r : traced) {
      for (const auto& [k, v] : r.layers) layer_values[k].push_back(v);
    }
    for (const LayerMetric& m : kLayerMetrics) {
      const double v = m.count ? (counts.count(m.name) ? counts[m.name] : 0.0)
                               : Median(layer_values[m.name]);
      metrics.push_back({m.name, v, m.unit, ""});
    }
    metrics.push_back({"trace.overhead_ratio", Median(overhead), "ratio",
                       "traced / untraced wall time of one plan"});
    if (!args.trace_out.empty() && !traced.empty()) {
      std::ofstream(args.trace_out) << ChromeTraceJson(traced[0].spans);
    }
  }

  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("# workload=%s seed=%" PRIu64 " trace=%d build=%s nproc=%d cpu=\"%s\" "
              "workdir_fs=%s epochs=%zu+%zu(traced) loop=closed clients=1 "
              "closure=serial flush=\"journal fsync before ack; snapshot "
              "temp-file fsync + atomic rename + dir fsync\"\n",
              w->name, args.seed, args.trace ? 1 : 0, PSEM_BUILD_TYPE, Nproc(),
              CpuModel().c_str(), FsType(args.workdir).c_str(), untraced.size(),
              traced.size());
  const MachineRef ref = ProbeMachine();
  std::printf("# machine probe after the run: alu %.3f ns/iter, memory %.1f ns/load\n",
              ref.alu_ns, ref.mem_ns);
  std::printf("# why: %s\n# idle: %s\n", w->why, w->idle);
  std::string count_json = "# counts {";
  for (const auto& [k, v] : counts) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g",
                  count_json.size() > 10 ? ", " : "", k.c_str(), v);
    count_json += buf;
  }
  std::printf("%s}\n", count_json.c_str());
  std::printf("%s\n", Json(metrics, correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: psem_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-out FILE] | --list\n");
    return 2;
  }
  if (args.list) {
    for (const perfbench::WorkloadDef& w : perfbench::Workloads()) {
      std::printf("%s\n  why:  %s\n  idle: %s\n", w.name, w.why, w.idle);
    }
    return 0;
  }
  return perfbench::Run(args);
}
