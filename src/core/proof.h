/// @file proof.h
/// @brief Checkable derivations over the seven arc rules of ALG.

// Proof extraction for PD implication. Algorithm ALG (Section 5.2) is a
// saturation procedure: every arc it adds is justified by one of seven
// rules. This module re-runs the saturation with provenance tracking and
// extracts, for an implied PD, an explicit derivation — a sequence of
// arcs each annotated with the rule and premises that produced it. Proofs
// are independently checkable (ValidateProof) and renderable, giving the
// library an "explain" capability on top of the yes/no engine.

#ifndef PSEM_CORE_PROOF_H_
#define PSEM_CORE_PROOF_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lattice/expr.h"
#include "util/status.h"

namespace psem {

/// One derived arc p <= q with its justification. Mirrors ALG's rules:
/// reflexivity (step 1, attributes only), hypothesis (step 6),
/// the four monotonicity/decomposition steps 2-5, and transitivity
/// (step 7).
struct ProofStep {
  enum class Rule : uint8_t {
    kReflexivity,   ///< A <= A for an attribute A (step 1).
    kHypothesis,    ///< arc of a constraint in E (step 6).
    kSumLub,        ///< p <= s, q <= s  =>  p+q <= s   (step 2).
    kProductLower,  ///< p <= s          =>  p*q <= s,
                    ///< q <= s          =>  p*q <= s   (step 3).
    kProductGlb,    ///< s <= p, s <= q  =>  s <= p*q   (step 4).
    kSumUpper,      ///< s <= p          =>  s <= p+q,
                    ///< s <= q          =>  s <= p+q   (step 5).
    kTransitivity,  ///< p <= r, r <= q  =>  p <= q     (step 7).
  };

  ExprId lhs;
  ExprId rhs;
  Rule rule;
  /// Indices (into Proof::steps) of the premises; kNoPremise if unused.
  static constexpr uint32_t kNoPremise = UINT32_MAX;
  uint32_t premise1 = kNoPremise;
  uint32_t premise2 = kNoPremise;
  /// For kHypothesis: index of the constraint in the engine's E.
  uint32_t hypothesis_index = kNoPremise;
};

/// A derivation of `goal` (its final step) from a constraint set. Steps
/// are topologically ordered: premises always precede their consumers.
struct Proof {
  std::vector<ProofStep> steps;

  const ProofStep& goal() const { return steps.back(); }
};

/// Saturation engine with provenance: the library's one literal ALG, and
/// the reference the bitset PdImplicationEngine is differential-tested
/// against (Prove(query).ok() is the verdict E |= query). Slower, as it
/// applies rules arc-by-arc; use it when a derivation is wanted.
class ProvenanceEngine {
 public:
  ProvenanceEngine(const ExprArena* arena, std::vector<Pd> constraints);

  /// A proof of e <= e', or NotFound if E does not imply it.
  Result<Proof> ProveLeq(ExprId lhs, ExprId rhs);

  /// A proof of the query. For an equation, the returned proof derives
  /// lhs <= rhs and a second call can derive the converse; this
  /// convenience concatenates both directions (goal = last step = the
  /// rhs <= lhs direction) when is_equation.
  Result<Proof> Prove(const Pd& query);

  const std::vector<Pd>& constraints() const { return constraints_; }

 private:
  void Saturate();
  void AddVertex(ExprId e);
  // Adds arc with provenance if new; returns true if added.
  bool AddArc(ExprId l, ExprId r, ProofStep step);

  const ExprArena* arena_;
  std::vector<Pd> constraints_;
  std::vector<ExprId> vertices_;    // insertion order, children first
  std::unordered_set<ExprId> in_v_;  // dedupe index over vertices_
  // arc key -> index into all_steps_.
  std::vector<ProofStep> all_steps_;
  std::vector<uint64_t> arc_keys_;  // parallel to all_steps_
  // key -> step index
  std::unordered_map<uint64_t, uint32_t> arc_index_;
  bool saturated_ = false;
};

/// Checks a proof for well-formedness and local rule validity against the
/// constraint set: premises precede consumers, each step's conclusion
/// follows from its premises by its rule, and reflexivity is only used on
/// attributes (step 1). It does not know what the proof was meant to
/// show; callers compare goal() against the PD they asked for.
Status ValidateProof(const ExprArena& arena, const std::vector<Pd>& constraints,
                     const Proof& proof);

/// Human-readable rendering, one numbered step per line.
std::string RenderProof(const ExprArena& arena, const Proof& proof);

}  // namespace psem

#endif  // PSEM_CORE_PROOF_H_
