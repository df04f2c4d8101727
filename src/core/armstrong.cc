#include "core/armstrong.h"

#include <optional>
#include <string>

namespace psem {

namespace {

// Closure restricted to the scheme.
AttrSet SchemeClosure(const FdTheory& theory, const AttrSet& scheme,
                      const AttrSet& x) {
  AttrSet c = theory.Closure(x);
  // Closure() sizes to the universe; restrict and resize to scheme space.
  AttrSet out(scheme.size());
  scheme.ForEach([&](std::size_t a) {
    if (a < c.size() && c.Test(a)) out.Set(a);
  });
  return out;
}

// Ganter's NextClosure step: the lectically next closed set after A, or
// nullopt when A is the last one (the full scheme).
std::optional<AttrSet> NextClosure(const FdTheory& theory,
                                   const AttrSet& scheme, AttrSet a,
                                   const std::vector<std::size_t>& attrs) {
  for (std::size_t idx = attrs.size(); idx-- > 0;) {
    std::size_t i = attrs[idx];
    if (a.Test(i)) {
      a.Reset(i);
    } else {
      AttrSet candidate = a;
      candidate.Set(i);
      AttrSet closed = SchemeClosure(theory, scheme, candidate);
      // Accept iff closed \ a contains no attribute smaller than i.
      bool ok = true;
      for (std::size_t jdx = 0; jdx < idx && ok; ++jdx) {
        std::size_t j = attrs[jdx];
        if (closed.Test(j) && !a.Test(j)) ok = false;
      }
      if (ok) return closed;
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<AttrSet> ClosedSets(const FdTheory& theory, const AttrSet& scheme) {
  std::vector<std::size_t> attrs;
  scheme.ForEach([&](std::size_t a) { attrs.push_back(a); });
  std::vector<AttrSet> out;
  if (attrs.empty()) return out;
  AttrSet current = SchemeClosure(theory, scheme, AttrSet(scheme.size()));
  out.push_back(current);
  while (true) {
    auto next = NextClosure(theory, scheme, current, attrs);
    if (!next) break;
    current = *next;
    out.push_back(current);
  }
  return out;
}

Result<std::size_t> BuildArmstrongRelation(const FdTheory& theory,
                                           const AttrSet& scheme, Database* db,
                                           const std::string& name) {
  if (!scheme.Any()) {
    return Status::InvalidArgument("scheme must be nonempty");
  }
  std::vector<std::string> attr_names;
  scheme.ForEach([&](std::size_t a) {
    attr_names.push_back(
        theory.universe()->NameOf(static_cast<RelAttrId>(a)));
  });
  std::size_t ri = db->AddRelation(name, attr_names);
  Relation& r = db->relation(ri);

  // Base row: value "base_<attr>" per column.
  std::vector<std::string> base;
  for (const auto& an : attr_names) base.push_back("v0_" + an);
  r.AddRow(&db->symbols(), base);

  // One row per proper closed set C: agrees with base exactly on C.
  std::vector<AttrSet> closed = ClosedSets(theory, scheme);
  std::size_t row_id = 1;
  for (const AttrSet& c : closed) {
    if (c == [&] {
          AttrSet s(scheme.size());
          scheme.ForEach([&](std::size_t a) { s.Set(a); });
          return s;
        }()) {
      continue;  // the full scheme would duplicate the base row
    }
    std::vector<std::string> row;
    std::size_t col = 0;
    scheme.ForEach([&](std::size_t a) {
      if (c.Test(a)) {
        row.push_back(base[col]);
      } else {
        row.push_back('v' + std::to_string(row_id) + '_' + attr_names[col]);
      }
      ++col;
    });
    r.AddRow(&db->symbols(), row);
    ++row_id;
  }
  return ri;
}

}  // namespace psem
