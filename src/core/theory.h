/// @file theory.h
/// @brief PdTheory, the library facade for PD reasoning.

// PdTheory: the library's main facade. Owns an expression arena and an
// ALG engine that holds the set E of partition dependencies (E is stored
// there and nowhere else); answers implication queries (Algorithm ALG,
// Theorem 9), identity queries (Whitman rules, Theorem 10), and
// satisfaction queries against relations, interpretations, and finite
// lattices.

#ifndef PSEM_CORE_THEORY_H_
#define PSEM_CORE_THEORY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/implication.h"
#include "core/model_finder.h"
#include "core/proof.h"
#include "lattice/expr.h"
#include "lattice/whitman.h"
#include "partition/canonical.h"
#include "relational/relation.h"
#include "util/status.h"

namespace psem {

/// A set E of partition dependencies with an inference engine.
///
/// Usage:
///   PdTheory t;
///   t.AddParsed("A = A * B");        // the FPD for A -> B
///   t.AddParsed("C = A + B");        // connectivity
///   t.ImpliesParsed("A <= C");       // -> true
class PdTheory {
 public:
  PdTheory()
      : arena_(std::make_unique<ExprArena>()),
        engine_(arena_.get(), std::vector<Pd>{}) {}

  ExprArena& arena() { return *arena_; }
  const ExprArena& arena() const { return *arena_; }

  /// Adds a PD to E. The engine grows in place (AddConstraint warm-starts
  /// the next closure from the current one) instead of being rebuilt.
  /// E is a set: re-adding a PD already in E changes nothing.
  void Add(const Pd& pd) { engine_.AddConstraint(pd); }

  /// Parses and adds "e = e'" or "e <= e'" (see ExprArena::ParsePd).
  Status AddParsed(std::string_view text);

  /// E in insertion order, each PD once: the engine's constraints().
  const std::vector<Pd>& pds() const { return engine_.constraints(); }

  /// E |= query over lattices = over finite lattices = over relations =
  /// over finite relations (Theorem 8), decided in polynomial time
  /// (Theorem 9).
  bool Implies(const Pd& query);

  /// Answers a whole batch of queries against one shared closure (new
  /// subexpressions are added once, duplicates resolve via the engine's
  /// LRU cache). out[i] corresponds to queries[i].
  std::vector<bool> BatchImplies(std::span<const Pd> queries);

  /// Parses every query, then calls BatchImplies.
  Result<std::vector<bool>> BatchImpliesParsed(
      std::span<const std::string> texts);

  /// Parses the query and calls Implies.
  Result<bool> ImpliesParsed(std::string_view text);

  /// Two PDs are equivalent under E iff each is implied when the other is
  /// added. This convenience checks E |= a <-> E |= b symmetric closure:
  /// (E + a |= b) and (E + b |= a).
  bool Equivalent(const Pd& a, const Pd& b);

  /// True iff `pd` holds in every lattice / interpretation / relation
  /// outright (E plays no role): the logspace-recognizable identity
  /// fragment of Theorem 10.
  bool IsIdentity(const Pd& pd) const;

  /// Every relation satisfying E satisfies the recorded PDs; checks the
  /// given relation against all of E (Definition 7).
  Result<bool> SatisfiedBy(const Database& db, const Relation& r) const;

  /// A checkable derivation of `query` from E (Section 5.2's rules), or
  /// NotFound when not implied. Slower than Implies; use for
  /// explanations.
  Result<Proof> Explain(const Pd& query);

  /// Renders Explain's output ("1. A <= B [hypothesis E1] ...").
  Result<std::string> ExplainText(std::string_view query_text);

  /// A small partition interpretation satisfying E and violating `query`
  /// (nullopt if none exists with population <= max_population; for an
  /// implied query, none ever exists).
  std::optional<CounterModel> FindCounterexample(
      const Pd& query, std::size_t max_population = 4) const;

  /// The ALG engine that holds E, e.g. for stats.
  PdImplicationEngine& engine() { return engine_; }

 private:
  std::unique_ptr<ExprArena> arena_;  // heap-held: engine_ points into it
  PdImplicationEngine engine_;
};

}  // namespace psem

#endif  // PSEM_CORE_THEORY_H_
