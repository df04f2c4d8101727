/// @file interpretation.h
/// @brief Partition interpretations (Definition 1) and satisfaction.

// Partition interpretations (Definition 1): for each attribute A, a
// population p_A, an atomic partition pi_A of p_A, and a naming function
// f_A mapping each data symbol to a distinct block of pi_A or to the empty
// set. An interpretation gives meaning to partition expressions (Section
// 3.1), satisfies or falsifies databases (Definition 2) and PDs
// (Definition 3), and may additionally satisfy the CAD and EAP assumptions
// (Definition 4).

#ifndef PSEM_PARTITION_INTERPRETATION_H_
#define PSEM_PARTITION_INTERPRETATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lattice/expr.h"
#include "partition/partition.h"
#include "relational/relation.h"
#include "relational/universe.h"
#include "util/status.h"

namespace psem {

/// A partition interpretation over (a subset of) a Universe's attributes.
/// Attributes are addressed by name so that expressions from any ExprArena
/// can be evaluated against it.
///
/// Eval/Satisfies are one-shot: each call evaluates on the dense kernel
/// layer through a local EvalContext (partition/eval_context.h), which
/// shares subexpressions within the call. The interpretation keeps no
/// cache; a caller that evaluates many expressions against one
/// interpretation holds its own EvalContext to keep the memo across
/// calls. EvalSparse is the paper-literal reference path the differential
/// tests pit the kernels against. Const access is thread-safe.
class PartitionInterpretation {
 public:
  /// Defines attribute `name`: its atomic partition and naming function.
  /// `naming` maps symbol names to block labels of `atomic`; it must be a
  /// bijection onto the blocks (Definition 1 condition 3). Symbols absent
  /// from the map are interpreted as the empty set.
  Status DefineAttribute(const std::string& name, Partition atomic,
                         const std::unordered_map<std::string, uint32_t>& naming);

  bool HasAttribute(const std::string& name) const {
    return attrs_.count(name) > 0;
  }

  /// The atomic partition pi_A.
  Result<Partition> AtomicPartition(const std::string& name) const;

  /// f_A(symbol): the block (as an element set), or an empty vector when
  /// f_A maps the symbol to the empty set.
  Result<std::vector<Elem>> NamedBlock(const std::string& attr,
                                       const std::string& symbol) const;

  /// The symbol naming block `label` of pi_A (inverse of f_A).
  Result<std::string> SymbolOfBlock(const std::string& attr,
                                    uint32_t label) const;

  /// Meaning of a partition expression (structural induction of Section
  /// 3.1): attributes evaluate to their atomic partitions; * and + to
  /// partition product and sum. Evaluated on the dense kernel layer;
  /// bit-identical to EvalSparse.
  Result<Partition> Eval(const ExprArena& arena, ExprId e) const;

  /// The paper-literal recursive evaluation over the sparse Partition
  /// API — the reference implementation for differential testing. No
  /// memoization, no sharing.
  Result<Partition> EvalSparse(const ExprArena& arena, ExprId e) const;

  /// I |= e = e' (Definition 3): equal partitions over equal populations.
  /// For the <= form: lhs == lhs * rhs. Evaluated like Eval.
  Result<bool> Satisfies(const ExprArena& arena, const Pd& pd) const;

  /// Mutation counter: bumped by every DefineAttribute. An EvalContext
  /// bound to this interpretation flushes its memo when the epoch moves,
  /// so an unchanged epoch guarantees its cached partitions are current.
  uint64_t epoch() const { return epoch_; }

  /// The atomic partition of `name` without copying, or nullptr when the
  /// attribute is not interpreted.
  const Partition* FindAtomic(const std::string& name) const {
    const AttrInterp* a = FindAttr(name);
    return a == nullptr ? nullptr : &a->atomic;
  }

  /// I |= d (Definition 2): the meaning of every tuple of every relation
  /// is a nonempty set.
  Result<bool> SatisfiesDatabase(const Database& db) const;

  /// Meaning of a single tuple: the intersection over the scheme's
  /// attributes of f_A(t[A]). Empty result <=> meaning is the empty set.
  Result<std::vector<Elem>> TupleMeaning(const Database& db,
                                         const Relation& r,
                                         const Tuple& t) const;

  /// Definition 4.1: CAD holds for database d iff for every defined
  /// attribute A and every symbol x, x appears in d under A exactly when
  /// f_A(x) is nonempty.
  Result<bool> SatisfiesCad(const Database& db) const;

  /// Definition 4.2: EAP — all defined attributes share one population.
  bool SatisfiesEap() const;

  /// Names of defined attributes (insertion order).
  const std::vector<std::string>& attribute_names() const {
    return attr_order_;
  }

  std::string ToString() const;

 private:
  struct AttrInterp {
    Partition atomic;
    // f_A restricted to its support: symbol name -> block label.
    std::unordered_map<std::string, uint32_t> naming;
    // inverse: block label -> symbol name.
    std::vector<std::string> block_symbol;
  };

  const AttrInterp* FindAttr(const std::string& name) const {
    auto it = attrs_.find(name);
    return it == attrs_.end() ? nullptr : &it->second;
  }

  std::unordered_map<std::string, AttrInterp> attrs_;
  std::vector<std::string> attr_order_;
  uint64_t epoch_ = 0;
};

}  // namespace psem

#endif  // PSEM_PARTITION_INTERPRETATION_H_
