#include "core/normalize.h"

#include <unordered_map>

#include "core/implication.h"

namespace psem {

namespace {

// Flattening context: assigns each subexpression an attribute of the
// extended universe, emitting defining dependencies as it goes.
class Flattener {
 public:
  Flattener(const ExprArena& arena, Universe* universe, ExprArena* out_arena)
      : arena_(arena), universe_(universe), out_arena_(out_arena) {}

  /// Attribute (extended-universe id) denoting subexpression `root`.
  RelAttrId AttrFor(ExprId root) {
    auto known = [this](ExprId e) { return memo_.contains(e); };
    for (ExprId e : arena_.PostOrder(root, known)) {
      if (known(e)) continue;
      RelAttrId result;
      switch (arena_.KindOf(e)) {
        case ExprKind::kAttr:
          result = universe_->Intern(arena_.AttrName(arena_.AttrOf(e)));
          break;
        case ExprKind::kProduct: {
          RelAttrId a = memo_.at(arena_.LhsOf(e));
          RelAttrId b = memo_.at(arena_.RhsOf(e));
          result = Fresh();
          // C = A * B: C -> A, C -> B (C <= A*B) and AB -> C (A*B <= C).
          AddFd({result}, {a});
          AddFd({result}, {b});
          AddFd({a, b}, {result});
          // Constraint arcs for the ALG closure (definitional equality).
          ExprId ea = out_arena_->Attr(universe_->NameOf(a));
          ExprId eb = out_arena_->Attr(universe_->NameOf(b));
          ExprId ec = out_arena_->Attr(universe_->NameOf(result));
          closure_pds_.push_back(Pd::Eq(ec, out_arena_->Product(ea, eb)));
          break;
        }
        case ExprKind::kSum: {
          RelAttrId a = memo_.at(arena_.LhsOf(e));
          RelAttrId b = memo_.at(arena_.RhsOf(e));
          result = Fresh();
          // C = A + B: A -> C, B -> C (A + B <= C) plus residual C <= A+B.
          AddFd({a}, {result});
          AddFd({b}, {result});
          sum_uppers_.push_back(SumUpperConstraint{result, a, b});
          ExprId ea = out_arena_->Attr(universe_->NameOf(a));
          ExprId eb = out_arena_->Attr(universe_->NameOf(b));
          ExprId ec = out_arena_->Attr(universe_->NameOf(result));
          closure_pds_.push_back(Pd::Eq(ec, out_arena_->Sum(ea, eb)));
          break;
        }
        default:
          PSEM_CHECK(false, "Flattener: expression kind outside ExprKind");
      }
      memo_.emplace(e, result);
    }
    return memo_.at(root);
  }

  void AddEquality(RelAttrId x, RelAttrId y) {
    AddFd({x}, {y});
    AddFd({y}, {x});
    ExprId ex = out_arena_->Attr(universe_->NameOf(x));
    ExprId ey = out_arena_->Attr(universe_->NameOf(y));
    closure_pds_.push_back(Pd::Eq(ex, ey));
  }

  void AddLeq(RelAttrId x, RelAttrId y) {
    AddFd({x}, {y});
    ExprId ex = out_arena_->Attr(universe_->NameOf(x));
    ExprId ey = out_arena_->Attr(universe_->NameOf(y));
    closure_pds_.push_back(Pd::Leq(ex, ey));
  }

  std::vector<Fd>& fds() { return fds_; }
  std::vector<SumUpperConstraint>& sum_uppers() { return sum_uppers_; }
  std::vector<Pd>& closure_pds() { return closure_pds_; }
  std::vector<std::string>& fresh_attrs() { return fresh_attrs_; }

 private:
  RelAttrId Fresh() {
    std::string name;
    do {
      name = "_s" + std::to_string(fresh_counter_++);
    } while (universe_->Require(name).ok());
    fresh_attrs_.push_back(name);
    return universe_->Intern(name);
  }

  void AddFd(std::initializer_list<RelAttrId> lhs,
             std::initializer_list<RelAttrId> rhs) {
    // Sets are sized when finally materialized; store raw ids now because
    // the universe is still growing.
    raw_fds_.push_back({std::vector<RelAttrId>(lhs),
                        std::vector<RelAttrId>(rhs)});
  }

 public:
  /// Rebuilds the Fd vector with bitsets sized to the final universe.
  void Materialize() {
    fds_.clear();
    const std::size_t n = universe_->size();
    for (const auto& [lhs, rhs] : raw_fds_) {
      AttrSet l(n), r(n);
      for (RelAttrId a : lhs) l.Set(a);
      for (RelAttrId a : rhs) r.Set(a);
      fds_.push_back(Fd{std::move(l), std::move(r)});
    }
  }

 private:
  const ExprArena& arena_;
  Universe* universe_;
  ExprArena* out_arena_;
  std::unordered_map<ExprId, RelAttrId> memo_;
  std::vector<std::pair<std::vector<RelAttrId>, std::vector<RelAttrId>>>
      raw_fds_;
  std::vector<Fd> fds_;
  std::vector<SumUpperConstraint> sum_uppers_;
  std::vector<Pd> closure_pds_;
  std::vector<std::string> fresh_attrs_;
  uint64_t fresh_counter_ = 0;
};

}  // namespace

Result<NormalizedPds> NormalizePds(const ExprArena& arena,
                                   const std::vector<Pd>& pds,
                                   Universe* universe) {
  ExprArena flat_arena;
  Flattener fl(arena, universe, &flat_arena);

  // Step 1 + 2: flatten every PD; tops related by equality or <=.
  for (const Pd& pd : pds) {
    RelAttrId l = fl.AttrFor(pd.lhs);
    RelAttrId r = fl.AttrFor(pd.rhs);
    if (pd.is_equation) {
      fl.AddEquality(l, r);
    } else {
      fl.AddLeq(l, r);
    }
  }
  fl.Materialize();

  // Step 3: one ALG closure over the flat constraint set; read off every
  // A <= B between attributes of the extended universe that occur in the
  // constraints (attributes not occurring are only related to themselves).
  PdImplicationEngine engine(&flat_arena, fl.closure_pds());
  std::vector<ExprId> attr_exprs;
  std::vector<RelAttrId> attr_ids;
  for (RelAttrId a = 0; a < universe->size(); ++a) {
    auto known = flat_arena.attr_names().Lookup(universe->NameOf(a));
    if (!known.has_value()) continue;  // never mentioned by any PD
    attr_exprs.push_back(flat_arena.AttrExpr(*known));
    attr_ids.push_back(a);
  }
  engine.Prepare(attr_exprs);

  const std::size_t n = universe->size();
  NormalizedPds out;
  out.fpds = fl.fds();
  out.fresh_attrs = fl.fresh_attrs();
  // Derived single-attribute FDs.
  for (std::size_t i = 0; i < attr_exprs.size(); ++i) {
    for (std::size_t j = 0; j < attr_exprs.size(); ++j) {
      if (i == j) continue;
      if (engine.LeqInClosure(attr_exprs[i], attr_exprs[j])) {
        AttrSet l(n), r(n);
        l.Set(attr_ids[i]);
        r.Set(attr_ids[j]);
        out.fpds.push_back(Fd{std::move(l), std::move(r)});
      }
    }
  }
  // Prune sum-uppers whose sides became comparable.
  auto leq_attr = [&](RelAttrId x, RelAttrId y) {
    auto ex = flat_arena.attr_names().Lookup(universe->NameOf(x));
    auto ey = flat_arena.attr_names().Lookup(universe->NameOf(y));
    if (!ex || !ey) return x == y;
    return engine.LeqInClosure(flat_arena.AttrExpr(*ex),
                               flat_arena.AttrExpr(*ey));
  };
  for (const SumUpperConstraint& su : fl.sum_uppers()) {
    if (leq_attr(su.a, su.b)) {
      // A <= B makes A + B = B: the constraint degenerates to C <= B.
      AttrSet l(n), r(n);
      l.Set(su.c);
      r.Set(su.b);
      out.fpds.push_back(Fd{std::move(l), std::move(r)});
    } else if (leq_attr(su.b, su.a)) {
      AttrSet l(n), r(n);
      l.Set(su.c);
      r.Set(su.a);
      out.fpds.push_back(Fd{std::move(l), std::move(r)});
    } else {
      out.sum_uppers.push_back(su);
    }
  }
  return out;
}

}  // namespace psem
