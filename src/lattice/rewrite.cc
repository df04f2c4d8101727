#include "lattice/rewrite.h"

#include <queue>
#include <unordered_map>

namespace psem {

namespace {

// Appends root-level rewrites of `e`. Every rewrite replaces e by e' with
// e <= e' valid (identity or E-arc), so substitution at any position —
// both operations are monotone — witnesses whole-expression <=_E.
void RootRewrites(ExprArena* arena, ExprId e, const std::vector<Pd>& equations,
                  const std::vector<ExprId>& pad_pool, uint32_t max_size,
                  std::vector<RewriteStep>* out) {
  if (!arena->IsAttr(e)) {
    ExprId l = arena->LhsOf(e), r = arena->RhsOf(e);
    if (arena->KindOf(e) == ExprKind::kProduct) {
      // Rules 2/3: x*y <= x, x*y <= y.
      out->push_back({l, "project-left"});
      out->push_back({r, "project-right"});
    } else if (l == r) {
      // Rule 1: x+x = x (the shrinking direction).
      out->push_back({l, "collapse-sum"});
    }
  }
  // Rule 4: x = x*x (the growing direction).
  if (uint64_t{arena->TreeSize(e)} * 2 + 1 <= max_size) {
    out->push_back({arena->Product(e, e), "expand-product"});
  }
  // Rules 5/6: x <= x+y, x <= y+x.
  for (ExprId y : pad_pool) {
    if (uint64_t{arena->TreeSize(e)} + arena->TreeSize(y) + 1 <= max_size) {
      out->push_back({arena->Sum(e, y), "pad-sum-right"});
      out->push_back({arena->Sum(y, e), "pad-sum-left"});
    }
  }
  // Rule 7: E-substitutions, oriented along the constraint.
  for (std::size_t i = 0; i < equations.size(); ++i) {
    const Pd& pd = equations[i];
    if (e == pd.lhs && arena->TreeSize(pd.rhs) <= max_size) {
      out->push_back({pd.rhs, 'E' + std::to_string(i + 1) + " ->"});
    }
    if (pd.is_equation && e == pd.rhs && arena->TreeSize(pd.lhs) <= max_size) {
      out->push_back({pd.lhs, 'E' + std::to_string(i + 1) + " <-"});
    }
  }
}

void AllRewrites(ExprArena* arena, ExprId e, const std::vector<Pd>& equations,
                 const std::vector<ExprId>& pad_pool, uint32_t max_size,
                 uint32_t context_size, std::vector<RewriteStep>* out) {
  // Rewrites at the root; the context the subterm sits in consumes
  // context_size nodes of the budget.
  std::vector<RewriteStep> here;
  RootRewrites(arena, e, equations, pad_pool,
               max_size > context_size ? max_size - context_size : 0, &here);
  out->insert(out->end(), here.begin(), here.end());
  // Rewrites inside children, rebuilt through this node.
  if (arena->IsAttr(e)) return;
  ExprId l = arena->LhsOf(e), r = arena->RhsOf(e);
  ExprKind op = arena->KindOf(e);
  std::vector<RewriteStep> sub;
  AllRewrites(arena, l, equations, pad_pool, max_size,
              context_size + arena->TreeSize(r) + 1, &sub);
  for (const RewriteStep& s : sub) {
    out->push_back({op == ExprKind::kProduct ? arena->Product(s.expr, r)
                                             : arena->Sum(s.expr, r),
                    s.rule});
  }
  sub.clear();
  AllRewrites(arena, r, equations, pad_pool, max_size,
              context_size + arena->TreeSize(l) + 1, &sub);
  for (const RewriteStep& s : sub) {
    out->push_back({op == ExprKind::kProduct ? arena->Product(l, s.expr)
                                             : arena->Sum(l, s.expr),
                    s.rule});
  }
}

}  // namespace

std::vector<RewriteStep> OneStepRewrites(ExprArena* arena, ExprId e,
                                         const std::vector<Pd>& equations,
                                         const std::vector<ExprId>& pad_pool,
                                         uint32_t max_size) {
  std::vector<RewriteStep> out;
  AllRewrites(arena, e, equations, pad_pool, max_size, 0, &out);
  return out;
}

Result<RewriteSequence> FindRewriteSequence(ExprArena* arena, ExprId from,
                                            ExprId to,
                                            const std::vector<Pd>& equations,
                                            uint32_t max_size,
                                            std::size_t max_states) {
  // Pad pool: distinct subexpressions of E, from, to (the lemma's proof
  // shows these suffice for the y's of rules 5/6).
  std::vector<ExprId> roots;
  for (const Pd& pd : equations) {
    roots.push_back(pd.lhs);
    roots.push_back(pd.rhs);
  }
  roots.push_back(from);
  roots.push_back(to);
  const std::vector<ExprId> pool = arena->PostOrder(roots);

  struct Visit {
    ExprId parent;
    std::string rule;
  };
  std::unordered_map<ExprId, Visit> visited;
  std::queue<ExprId> frontier;
  visited.emplace(from, Visit{kNoExpr, "start"});
  frontier.push(from);
  bool found = (from == to);
  while (!frontier.empty() && !found) {
    ExprId cur = frontier.front();
    frontier.pop();
    for (const RewriteStep& step :
         OneStepRewrites(arena, cur, equations, pool, max_size)) {
      if (visited.count(step.expr)) continue;
      visited.emplace(step.expr, Visit{cur, step.rule});
      if (step.expr == to) {
        found = true;
        break;
      }
      if (visited.size() >= max_states) {
        return Status::ResourceExhausted(
            "rewrite search exceeded " + std::to_string(max_states) +
            " states");
      }
      frontier.push(step.expr);
    }
  }
  if (!found) {
    return Status::NotFound("no rewrite sequence within the bounds");
  }
  // Reconstruct.
  std::vector<RewriteStep> rev;
  for (ExprId cur = to; cur != kNoExpr;) {
    const Visit& v = visited.at(cur);
    rev.push_back({cur, v.rule});
    cur = v.parent;
  }
  RewriteSequence seq;
  for (std::size_t i = rev.size(); i-- > 0;) seq.steps.push_back(rev[i]);
  return seq;
}

std::string RenderRewriteSequence(const ExprArena& arena,
                                  const RewriteSequence& seq) {
  std::string out;
  for (std::size_t i = 0; i < seq.steps.size(); ++i) {
    if (i > 0) out += "  --[" + seq.steps[i].rule + "]-->  ";
    out += arena.ToString(seq.steps[i].expr);
  }
  return out;
}

}  // namespace psem
