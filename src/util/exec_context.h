// ExecContext: execution governance for every long-running path in the
// library — the ALG closure fixpoints (Section 5.2's O(n^4) sweep), the
// Whitman deciders, the Honeyman chase, the Lemma 12.1 repair loop, and
// the NP-complete CAD/NAE backtracking searches (Theorem 11).
//
// A context carries three orthogonal controls:
//
//  * a deadline        — a steady-clock time point after which governed
//                        loops stop and return kResourceExhausted;
//  * a cancel token    — a shared atomic flag; flipping it makes every
//                        loop holding the context return kCancelled at
//                        its next checkpoint (cooperative cancellation,
//                        safe to trigger from any thread);
//  * work budgets      — arc-count and vertex-count caps for the ALG
//                        closure, a node cap for the backtracking
//                        solvers, a recursion/stack-depth cap for the
//                        Whitman deciders, and a round cap for the
//                        chase/repair fixpoints.
//
// Contract (see docs/robustness.md): a governed entry point that trips a
// limit returns a non-OK Status and leaves its object in a VALID,
// re-usable state — partial closure progress is kept as a sound warm
// start (every arc ever written is a consequence of E; the rules are
// monotone), partial stats are kept in AlgStats, and re-issuing the call
// with a fresh context completes normally and yields the same verdicts
// as a cold engine.
//
// All checking methods are const and thread-safe: a caller thread may
// cancel or poll a context while another thread runs a governed call.

#ifndef PSEM_UTIL_EXEC_CONTEXT_H_
#define PSEM_UTIL_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace psem {

/// Shared cooperative-cancellation flag. Copy freely; all copies observe
/// one underlying flag. Trigger from any thread (e.g. a server's RPC
/// teardown path) to make every governed loop holding a context built on
/// this token stop at its next checkpoint.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }
  /// Re-arms the token (for reuse across requests in tests/benchmarks).
  void Reset() const { flag_->store(false, std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Deadline + cancellation + resource budgets for one unit of work.
/// Cheap to copy; intended to be built per request and passed by const
/// reference down the call tree. 0 for any budget means "unlimited".
class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  ExecContext() = default;

  /// A shared unlimited context — the default for every governed entry
  /// point, preserving the ungoverned legacy behavior.
  static const ExecContext& Unbounded() {
    static const ExecContext ctx;
    return ctx;
  }

  // --- builders (chainable) ------------------------------------------------

  /// Absolute deadline.
  ExecContext& WithDeadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
    return *this;
  }
  /// Deadline `timeout` from now.
  ExecContext& WithTimeout(std::chrono::nanoseconds timeout) {
    return WithDeadline(Clock::now() + timeout);
  }
  ExecContext& WithCancelToken(CancelToken token) {
    token_ = std::move(token);
    has_token_ = true;
    return *this;
  }
  /// Caps the arc count of an ALG closure (memory proxy: the arc matrix).
  ExecContext& WithMaxArcs(uint64_t n) {
    max_arcs_ = n;
    return *this;
  }
  /// Caps |V|, the closure's vertex set (distinct subexpressions).
  ExecContext& WithMaxVertices(uint64_t n) {
    max_vertices_ = n;
    return *this;
  }
  /// Caps backtracking nodes of the NAE/CAD solvers.
  ExecContext& WithMaxSolverNodes(uint64_t n) {
    max_solver_nodes_ = n;
    return *this;
  }
  /// Caps recursion/stack depth of the Whitman deciders and the parser.
  ExecContext& WithMaxDepth(uint64_t n) {
    max_depth_ = n;
    return *this;
  }
  /// Caps fixpoint rounds of the chase and the repair loop.
  ExecContext& WithMaxRounds(uint64_t n) {
    max_rounds_ = n;
    return *this;
  }

  // --- accessors -------------------------------------------------------------

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }
  uint64_t max_arcs() const { return max_arcs_; }
  uint64_t max_vertices() const { return max_vertices_; }
  uint64_t max_solver_nodes() const { return max_solver_nodes_; }
  uint64_t max_depth() const { return max_depth_; }
  uint64_t max_rounds() const { return max_rounds_; }

  bool cancelled() const { return has_token_ && token_.cancelled(); }
  bool deadline_expired() const {
    return has_deadline_ && Clock::now() >= deadline_;
  }
  /// True when no control is configured — governed loops skip their
  /// per-iteration checkpoints entirely on this fast path.
  bool unbounded() const {
    return !has_deadline_ && !has_token_ && max_arcs_ == 0 &&
           max_vertices_ == 0 && max_solver_nodes_ == 0 && max_depth_ == 0 &&
           max_rounds_ == 0;
  }

  // --- checkpoints -----------------------------------------------------------
  // Each returns OK or the Status a governed loop should surface.
  //
  // Check() reads the steady clock, so hot loops throttle it (poll every
  // ~1024 iterations). The budget checkers are pure integer comparisons
  // and safe to call per iteration; they deliberately do NOT fold in
  // Check() so a loop can compose exactly the controls it needs.
  // Cancellation wins over the deadline when both have tripped.

  Status Check() const {
    if (cancelled()) {
      return Status::Cancelled("work cancelled via CancelToken");
    }
    if (deadline_expired()) {
      return Status::ResourceExhausted("deadline exceeded");
    }
    return Status::OK();
  }

  Status CheckArcs(uint64_t arcs) const {
    if (max_arcs_ != 0 && arcs > max_arcs_) {
      return Status::ResourceExhausted(
          "arc budget exhausted: " + std::to_string(arcs) + " arcs > max " +
          std::to_string(max_arcs_));
    }
    return Status::OK();
  }

  Status CheckVertices(uint64_t vertices) const {
    if (max_vertices_ != 0 && vertices > max_vertices_) {
      return Status::ResourceExhausted(
          "vertex budget exhausted: |V| = " + std::to_string(vertices) +
          " > max " + std::to_string(max_vertices_));
    }
    return Status::OK();
  }

  Status CheckSolverNodes(uint64_t nodes) const {
    if (max_solver_nodes_ != 0 && nodes > max_solver_nodes_) {
      return Status::ResourceExhausted(
          "solver node budget exhausted after " + std::to_string(nodes) +
          " nodes");
    }
    return Status::OK();
  }

  Status CheckDepth(uint64_t depth) const {
    if (max_depth_ != 0 && depth > max_depth_) {
      return Status::ResourceExhausted(
          "recursion depth budget exhausted at depth " +
          std::to_string(depth));
    }
    return Status::OK();
  }

  Status CheckRounds(uint64_t rounds) const {
    if (max_rounds_ != 0 && rounds > max_rounds_) {
      return Status::ResourceExhausted(
          "round budget exhausted after " + std::to_string(rounds) +
          " rounds");
    }
    return Status::OK();
  }

 private:
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  bool has_token_ = false;
  CancelToken token_;
  uint64_t max_arcs_ = 0;
  uint64_t max_vertices_ = 0;
  uint64_t max_solver_nodes_ = 0;
  uint64_t max_depth_ = 0;
  uint64_t max_rounds_ = 0;
};

}  // namespace psem

#endif  // PSEM_UTIL_EXEC_CONTEXT_H_
