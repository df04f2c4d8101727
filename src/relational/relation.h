// Relation schemes, tuples, relations, and databases (Section 2.1).
// A relation is a *set* of tuples: insertion deduplicates. Tuples store
// dense ValueIds; the owning SymbolTable renders them back to symbols.

#ifndef PSEM_RELATIONAL_RELATION_H_
#define PSEM_RELATIONAL_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "relational/universe.h"
#include "util/interner.h"
#include "util/status.h"

namespace psem {

/// A tuple over a scheme: one ValueId per scheme attribute, in scheme
/// (column) order.
using Tuple = std::vector<ValueId>;

/// A relation scheme R[U]: a name plus an ordered attribute list.
struct RelationSchema {
  std::string name;
  std::vector<RelAttrId> attrs;

  std::size_t arity() const { return attrs.size(); }

  /// Column position of `attr`, or npos.
  static constexpr std::size_t kNpos = SIZE_MAX;
  std::size_t ColumnOf(RelAttrId attr) const {
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      if (attrs[i] == attr) return i;
    }
    return kNpos;
  }

  bool Contains(RelAttrId attr) const { return ColumnOf(attr) != kNpos; }

  /// The attribute set of the scheme, sized to `universe_size`.
  AttrSet ToAttrSet(std::size_t universe_size) const {
    AttrSet s(universe_size);
    for (RelAttrId a : attrs) s.Set(a);
    return s;
  }
};

/// A finite relation over a scheme. Set semantics: AddTuple ignores exact
/// duplicates. Row order is insertion order (deterministic).
///
/// Membership is a FlatIdIndex over the rows, keyed by HashRow, so
/// Contains is one probe sequence.
class Relation {
 public:
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  const RelationSchema& schema() const { return schema_; }
  std::size_t arity() const { return schema_.arity(); }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const std::vector<Tuple>& rows() const { return rows_; }
  const Tuple& row(std::size_t i) const { return rows_[i]; }

  /// Inserts a tuple (must match arity). Returns true iff newly inserted.
  bool AddTuple(Tuple t);

  /// True iff the exact tuple is present.
  bool Contains(const Tuple& t) const {
    return index_.Find(HashRow(t),
                       [&](uint32_t row) { return rows_[row] == t; }) != 0;
  }

  /// Convenience: interns the given symbols and inserts the tuple.
  bool AddRow(SymbolTable* symbols, const std::vector<std::string>& values);

  /// Restriction of tuple `t` (over this scheme) to the attribute set X,
  /// in universe-id order — the t[X] of Section 2.1. All attrs of X must
  /// be in the scheme.
  Tuple Restrict(const Tuple& t, const AttrSet& x) const;

  /// The set of symbols appearing in the column of `attr` (used by d[A]
  /// and the CAD assumption). Empty if attr not in scheme.
  std::vector<ValueId> ColumnValues(RelAttrId attr) const;

  /// Renders the relation as an aligned text table.
  std::string ToString(const Universe& universe,
                       const SymbolTable& symbols) const;

 private:
  static uint64_t HashRow(const Tuple& t);

  RelationSchema schema_;
  std::vector<Tuple> rows_;
  FlatIdIndex index_;
};

/// A database: a set of named relations plus the shared universe and
/// symbol table they are expressed over.
class Database {
 public:
  Universe& universe() { return universe_; }
  const Universe& universe() const { return universe_; }
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  /// Creates an empty relation with the given scheme (attribute names are
  /// interned into the universe). Returns its index. References returned
  /// by relation() remain valid across later AddRelation calls (relations
  /// are heap-allocated with stable addresses).
  std::size_t AddRelation(const std::string& name,
                          const std::vector<std::string>& attr_names);

  std::size_t num_relations() const { return relations_.size(); }
  Relation& relation(std::size_t i) { return *relations_[i]; }
  const Relation& relation(std::size_t i) const { return *relations_[i]; }

  /// Relation by name.
  Result<std::size_t> IndexOf(const std::string& name) const;

  /// The union of all scheme attribute sets (the U of Section 2.1).
  AttrSet AllAttributes() const;

  /// d[A]: every symbol appearing under attribute A across all relations.
  std::vector<ValueId> ColumnValues(RelAttrId attr) const;

  std::string ToString() const;

 private:
  Universe universe_;
  SymbolTable symbols_;
  std::vector<std::unique_ptr<Relation>> relations_;
};

}  // namespace psem

#endif  // PSEM_RELATIONAL_RELATION_H_
