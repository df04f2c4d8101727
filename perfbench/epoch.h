// One epoch of a workload: set up a durable engine from the plan's text,
// run the plan's op stream against it as a closed loop (one client, the
// next op starts when the previous one returned), then drop the engine and
// recover it. Every verdict is checked; the checks, the byte accounting
// and the recovery stage breakdown run outside the timed regions.

#ifndef PERFBENCH_EPOCH_H_
#define PERFBENCH_EPOCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct EpochResult {
  double setup_s = 0.0;   ///< start of the epoch until the first op can run.
  double stream_s = 0.0;  ///< time spent inside the stream's ops.
  double recover_s = 0.0; ///< the recover op.
  uint64_t stream_ops = 0;
  /// Per op kind, seconds per op.
  std::vector<double> latency[kNumOpKinds];
  /// Per batch op, seconds per query in the batch.
  std::vector<double> batch_per_query;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Counts that must repeat exactly for one seed (bytes, rounds, |V|,
  /// arcs, |E|, journal records, the verdict digest, ...).
  std::map<std::string, double> counts;
  /// Per-layer timings, from the spans of a traced epoch.
  std::map<std::string, double> layers;
  std::vector<Span> spans;
};

/// Runs one epoch in `dir` (created if missing; its durable files are
/// replaced). With `traced`, records spans and derives per-layer timings
/// and the recovery stage breakdown.
EpochResult RunEpoch(const Plan& plan, uint64_t seed, const std::string& dir,
                     bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_EPOCH_H_
