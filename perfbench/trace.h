// In-memory span recorder for the traced benchmark run.
//
// A span brackets one call the benchmark makes into a psem module's public
// API (or one whole benchmark op). Spans carry the name "<layer>.<call>",
// start/end on the steady clock, the index of the enclosing span, and the
// id of the op they belong to. Nothing is written while the run measures;
// the spans are reduced to per-layer self times, and optionally dumped as
// Chrome trace-event JSON, after the run.
//
// With tracing off, a Scope costs one predictable branch, so the untraced
// run that yields the end-to-end metrics pays (almost) nothing for it.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  ///< "<layer>.<call>", static storage.
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index of the enclosing span, -1 for a root.
  uint32_t op;     ///< id shared by every span of one benchmark op.
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_op(uint32_t op) { op_ = op; }

  int32_t Begin(const char* name) {
    spans_.push_back(Span{name, NowNs(), 0, open_, op_});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void End(int32_t idx) {
    spans_[idx].end_ns = NowNs();
    open_ = spans_[idx].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  uint32_t op_ = 0;
  int32_t open_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        idx_(tracer_ ? tracer_->Begin(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->End(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t idx_;
};

/// Per-span-name totals: call count and inclusive time.
struct SpanTotals {
  uint64_t calls = 0;
  double total_s = 0.0;
};

/// Reduces `spans` to totals keyed by (root span name, span name), where
/// the root is the outermost enclosing span (the op or phase).
using SpanSummary =
    std::map<std::pair<std::string, std::string>, SpanTotals>;
SpanSummary SummarizeSpans(const std::vector<Span>& spans);

/// Sums self time by layer (the span-name prefix before the first '.')
/// over spans under roots whose name starts with `root_prefix`.
std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans,
                                             const std::string& root_prefix);

/// Chrome trace-event JSON ("X" complete events, microseconds).
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
