// Seeded workload definitions for the end-to-end benchmark.
//
// A workload turns a seed into a Plan: the text the library is fed (PD
// lines, query lines, CSV text) and the op stream of one epoch. Nothing
// but text reaches the library, and the same seed always yields the same
// plan, so every count the run reports repeats exactly.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class OpKind : uint8_t { kQuery, kQueryNew, kWrite, kBatch };
inline constexpr int kNumOpKinds = 4;

const char* OpKindName(OpKind kind);

/// Verdict expectation for one query line.
enum class Expect : int8_t {
  kNone = -1,        ///< no oracle for this query.
  kNotImplied = 0,   ///< must not be implied.
  kImplied = 1,      ///< must be implied.
};

struct Op {
  OpKind kind;
  /// One PD line; a batch holds several query lines.
  std::vector<std::string> texts;
  /// Per query line; empty for writes.
  std::vector<Expect> expect;
};

struct Plan {
  /// Base theory, one PD per line (empty for csv-discover, whose theory is
  /// mined from `csv` at set-up).
  std::vector<std::string> base;
  std::string csv;
  /// Snapshot + journal (true) or a journal-only engine (false).
  bool snapshot = true;
  std::vector<Op> ops;
  /// Logged queries re-checked against a fresh cold engine per epoch.
  std::size_t cold_sample = 0;
  /// Stream verdicts re-checked against a cold engine over the exact
  /// prefix of E they were answered under (one cold closure each).
  std::size_t prefix_checks = 0;
};

struct WorkloadDef {
  const char* name;
  const char* why;   ///< why this workload is in the benchmark.
  const char* idle;  ///< the layer it is meant to leave idle.
  Plan (*make)(uint64_t seed);
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
