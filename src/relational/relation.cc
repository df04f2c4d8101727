#include "relational/relation.h"

#include <algorithm>
#include <cassert>

namespace psem {

uint64_t Relation::HashRow(const Tuple& t) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (ValueId v : t) {
    h ^= v;
    h *= 0x100000001b3ull;
  }
  return MixHash(h);
}

bool Relation::AddTuple(Tuple t) {
  assert(t.size() == schema_.arity());
  index_.MakeRoom(rows_.size(),
                  [this](uint32_t row) { return HashRow(rows_[row]); });
  uint32_t& slot = index_.Slot(
      HashRow(t), [&](uint32_t row) { return rows_[row] == t; });
  if (slot != 0) return false;
  rows_.push_back(std::move(t));
  slot = static_cast<uint32_t>(rows_.size());
  return true;
}

bool Relation::AddRow(SymbolTable* symbols,
                      const std::vector<std::string>& values) {
  assert(values.size() == schema_.arity());
  Tuple t;
  t.reserve(values.size());
  for (const auto& v : values) t.push_back(symbols->Intern(v));
  return AddTuple(std::move(t));
}

Tuple Relation::Restrict(const Tuple& t, const AttrSet& x) const {
  Tuple out;
  x.ForEach([&](std::size_t attr) {
    std::size_t col = schema_.ColumnOf(static_cast<RelAttrId>(attr));
    assert(col != RelationSchema::kNpos);
    out.push_back(t[col]);
  });
  return out;
}

std::vector<ValueId> Relation::ColumnValues(RelAttrId attr) const {
  std::vector<ValueId> out;
  std::size_t col = schema_.ColumnOf(attr);
  if (col == RelationSchema::kNpos) return out;
  for (const Tuple& t : rows_) out.push_back(t[col]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string Relation::ToString(const Universe& universe,
                               const SymbolTable& symbols) const {
  std::vector<std::size_t> widths(arity());
  std::vector<std::string> headers(arity());
  for (std::size_t c = 0; c < arity(); ++c) {
    headers[c] = universe.NameOf(schema_.attrs[c]);
    widths[c] = headers[c].size();
  }
  for (const Tuple& t : rows_) {
    for (std::size_t c = 0; c < arity(); ++c) {
      widths[c] = std::max(widths[c], symbols.NameOf(t[c]).size());
    }
  }
  auto pad = [](const std::string& s, std::size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  std::string out = schema_.name + ":\n ";
  for (std::size_t c = 0; c < arity(); ++c) {
    out += " " + pad(headers[c], widths[c]);
  }
  out += "\n";
  for (const Tuple& t : rows_) {
    out += " ";
    for (std::size_t c = 0; c < arity(); ++c) {
      out += " " + pad(symbols.NameOf(t[c]), widths[c]);
    }
    out += "\n";
  }
  return out;
}

std::size_t Database::AddRelation(const std::string& name,
                                  const std::vector<std::string>& attr_names) {
  RelationSchema schema;
  schema.name = name;
  for (const auto& a : attr_names) schema.attrs.push_back(universe_.Intern(a));
  relations_.push_back(std::make_unique<Relation>(std::move(schema)));
  return relations_.size() - 1;
}

Result<std::size_t> Database::IndexOf(const std::string& name) const {
  for (std::size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i]->schema().name == name) return i;
  }
  return Status::NotFound("no relation named '" + name + "'");
}

AttrSet Database::AllAttributes() const {
  AttrSet all(universe_.size());
  for (const auto& r : relations_) {
    for (RelAttrId a : r->schema().attrs) all.Set(a);
  }
  return all;
}

std::vector<ValueId> Database::ColumnValues(RelAttrId attr) const {
  std::vector<ValueId> out;
  for (const auto& r : relations_) {
    auto col = r->ColumnValues(attr);
    out.insert(out.end(), col.begin(), col.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string Database::ToString() const {
  std::string out;
  for (const auto& r : relations_) {
    out += r->ToString(universe_, symbols_);
    out += "\n";
  }
  return out;
}

}  // namespace psem
