#include "partition/interpretation.h"

#include <algorithm>

#include "partition/eval_context.h"

namespace psem {

Status PartitionInterpretation::DefineAttribute(
    const std::string& name, Partition atomic,
    const std::unordered_map<std::string, uint32_t>& naming) {
  if (atomic.empty()) {
    return Status::InvalidArgument("population of '" + name +
                                   "' must be nonempty (Definition 1)");
  }
  if (naming.size() != atomic.num_blocks()) {
    return Status::InvalidArgument(
        "naming function for '" + name + "' must name each of the " +
        std::to_string(atomic.num_blocks()) + " blocks exactly once (got " +
        std::to_string(naming.size()) + " symbols)");
  }
  std::vector<std::string> block_symbol(atomic.num_blocks());
  std::vector<bool> named(atomic.num_blocks(), false);
  for (const auto& [sym, label] : naming) {
    if (label >= atomic.num_blocks()) {
      return Status::OutOfRange("naming of '" + name +
                                "' references nonexistent block " +
                                std::to_string(label));
    }
    if (named[label]) {
      return Status::InvalidArgument("two symbols name block " +
                                     std::to_string(label) + " of '" + name +
                                     "' (f_A must be injective on blocks)");
    }
    named[label] = true;
    block_symbol[label] = sym;
  }
  if (!attrs_.count(name)) attr_order_.push_back(name);
  attrs_[name] = AttrInterp{std::move(atomic), naming, std::move(block_symbol)};
  ++epoch_;  // flushes every EvalContext bound to this interpretation
  return Status::OK();
}

Result<Partition> PartitionInterpretation::AtomicPartition(
    const std::string& name) const {
  const AttrInterp* a = FindAttr(name);
  if (a == nullptr) {
    return Status::NotFound("attribute '" + name + "' not interpreted");
  }
  return a->atomic;
}

Result<std::vector<Elem>> PartitionInterpretation::NamedBlock(
    const std::string& attr, const std::string& symbol) const {
  const AttrInterp* a = FindAttr(attr);
  if (a == nullptr) {
    return Status::NotFound("attribute '" + attr + "' not interpreted");
  }
  auto it = a->naming.find(symbol);
  if (it == a->naming.end()) return std::vector<Elem>{};  // f_A(x) = empty
  auto blocks = a->atomic.Blocks();
  return blocks[it->second];
}

Result<std::string> PartitionInterpretation::SymbolOfBlock(
    const std::string& attr, uint32_t label) const {
  const AttrInterp* a = FindAttr(attr);
  if (a == nullptr) {
    return Status::NotFound("attribute '" + attr + "' not interpreted");
  }
  if (label >= a->block_symbol.size()) {
    return Status::OutOfRange("no block " + std::to_string(label) + " in '" +
                              attr + "'");
  }
  return a->block_symbol[label];
}

Result<Partition> PartitionInterpretation::EvalSparse(const ExprArena& arena,
                                                      ExprId e) const {
  return FoldPostOrder<Partition>(
      arena, e,
      [&](ExprId leaf) -> Result<Partition> {
        const std::string& name = arena.AttrName(arena.AttrOf(leaf));
        const AttrInterp* a = FindAttr(name);
        if (a == nullptr) {
          return Status::NotFound("attribute '" + name + "' not interpreted");
        }
        return a->atomic;
      },
      [&](ExprId node, const Partition& l, const Partition& r) {
        return arena.KindOf(node) == ExprKind::kProduct
                   ? Partition::Product(l, r)
                   : Partition::Sum(l, r);
      });
}

Result<Partition> PartitionInterpretation::Eval(const ExprArena& arena,
                                                ExprId e) const {
  return EvalContext(arena, *this).Eval(e);
}

Result<bool> PartitionInterpretation::Satisfies(const ExprArena& arena,
                                                const Pd& pd) const {
  return EvalContext(arena, *this).Satisfies(pd);
}

Result<std::vector<Elem>> PartitionInterpretation::TupleMeaning(
    const Database& db, const Relation& r, const Tuple& t) const {
  std::vector<Elem> meaning;
  bool first = true;
  for (std::size_t c = 0; c < r.arity(); ++c) {
    const std::string& attr = db.universe().NameOf(r.schema().attrs[c]);
    const std::string& sym = db.symbols().NameOf(t[c]);
    PSEM_ASSIGN_OR_RETURN(std::vector<Elem> block, NamedBlock(attr, sym));
    std::sort(block.begin(), block.end());
    if (first) {
      meaning = std::move(block);
      first = false;
    } else {
      std::vector<Elem> inter;
      std::set_intersection(meaning.begin(), meaning.end(), block.begin(),
                            block.end(), std::back_inserter(inter));
      meaning = std::move(inter);
    }
    if (meaning.empty()) return meaning;
  }
  return meaning;
}

Result<bool> PartitionInterpretation::SatisfiesDatabase(
    const Database& db) const {
  for (std::size_t ri = 0; ri < db.num_relations(); ++ri) {
    const Relation& r = db.relation(ri);
    for (const Tuple& t : r.rows()) {
      PSEM_ASSIGN_OR_RETURN(std::vector<Elem> m, TupleMeaning(db, r, t));
      if (m.empty()) return false;
    }
  }
  return true;
}

Result<bool> PartitionInterpretation::SatisfiesCad(const Database& db) const {
  for (const std::string& attr : attr_order_) {
    const AttrInterp& a = attrs_.at(attr);
    // Symbols appearing in d under this attribute.
    std::vector<std::string> in_d;
    auto attr_id = db.universe().Require(attr);
    if (attr_id.ok()) {
      for (ValueId v : db.ColumnValues(*attr_id)) {
        in_d.push_back(db.symbols().NameOf(v));
      }
    }
    std::sort(in_d.begin(), in_d.end());
    // Symbols with nonempty f_A.
    std::vector<std::string> named;
    named.reserve(a.naming.size());
    for (const auto& [sym, label] : a.naming) {
      (void)label;
      named.push_back(sym);
    }
    std::sort(named.begin(), named.end());
    if (in_d != named) return false;
  }
  return true;
}

bool PartitionInterpretation::SatisfiesEap() const {
  const std::vector<Elem>* pop = nullptr;
  for (const std::string& attr : attr_order_) {
    const auto& p = attrs_.at(attr).atomic.population();
    if (pop == nullptr) {
      pop = &p;
    } else if (*pop != p) {
      return false;
    }
  }
  return true;
}

std::string PartitionInterpretation::ToString() const {
  std::string out;
  for (const std::string& attr : attr_order_) {
    const AttrInterp& a = attrs_.at(attr);
    out += attr + ": " + a.atomic.ToString() + "  names:";
    auto blocks = a.atomic.Blocks();
    for (uint32_t b = 0; b < blocks.size(); ++b) {
      out += " " + a.block_symbol[b] + "->{";
      for (std::size_t i = 0; i < blocks[b].size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(blocks[b][i]);
      }
      out += "}";
    }
    out += "\n";
  }
  return out;
}

}  // namespace psem
