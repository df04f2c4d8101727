#include "core/proof.h"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace psem {

namespace {
inline uint64_t ArcKey(ExprId l, ExprId r) {
  return (static_cast<uint64_t>(l) << 32) | r;
}
}  // namespace

ProvenanceEngine::ProvenanceEngine(const ExprArena* arena,
                                   std::vector<Pd> constraints)
    : arena_(arena), constraints_(std::move(constraints)) {
  for (const Pd& pd : constraints_) {
    AddVertex(pd.lhs);
    AddVertex(pd.rhs);
  }
}

void ProvenanceEngine::AddVertex(ExprId e) {
  if (!in_v_.insert(e).second) return;
  if (!arena_->IsAttr(e)) {
    AddVertex(arena_->LhsOf(e));
    AddVertex(arena_->RhsOf(e));
  }
  vertices_.push_back(e);
  saturated_ = false;
}

bool ProvenanceEngine::AddArc(ExprId l, ExprId r, ProofStep step) {
  uint64_t key = ArcKey(l, r);
  if (arc_index_.count(key)) return false;
  step.lhs = l;
  step.rhs = r;
  arc_index_.emplace(key, static_cast<uint32_t>(all_steps_.size()));
  all_steps_.push_back(step);
  arc_keys_.push_back(key);
  return true;
}

void ProvenanceEngine::Saturate() {
  if (saturated_) return;
  // Rebuild from scratch: vertices may have grown since the last run, and
  // arcs derived with a smaller V stay valid but premise indices are
  // simplest to keep consistent by recomputation.
  all_steps_.clear();
  arc_keys_.clear();
  arc_index_.clear();

  // Step 1: (A, A) for attributes. A composite m reaches (m, m) through
  // rules 3+4 (products) or 5+2 (sums).
  for (ExprId v : vertices_) {
    if (!arena_->IsAttr(v)) continue;
    ProofStep s;
    s.rule = ProofStep::Rule::kReflexivity;
    AddArc(v, v, s);
  }
  // Step 6: hypotheses.
  for (uint32_t i = 0; i < constraints_.size(); ++i) {
    ProofStep s;
    s.rule = ProofStep::Rule::kHypothesis;
    s.hypothesis_index = i;
    AddArc(constraints_[i].lhs, constraints_[i].rhs, s);
    if (constraints_[i].is_equation) {
      AddArc(constraints_[i].rhs, constraints_[i].lhs, s);
    }
  }

  auto index_of = [&](ExprId l, ExprId r) -> uint32_t {
    return arc_index_.at(ArcKey(l, r));
  };
  auto has = [&](ExprId l, ExprId r) -> bool {
    return arc_index_.count(ArcKey(l, r)) > 0;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (ExprId m : vertices_) {
      if (arena_->IsAttr(m)) continue;
      ExprId p = arena_->LhsOf(m), q = arena_->RhsOf(m);
      for (ExprId s : vertices_) {
        if (arena_->KindOf(m) == ExprKind::kSum) {
          if (has(p, s) && has(q, s) && !has(m, s)) {
            ProofStep st;
            st.rule = ProofStep::Rule::kSumLub;
            st.premise1 = index_of(p, s);
            st.premise2 = index_of(q, s);
            changed |= AddArc(m, s, st);
          }
          if (has(s, p) && !has(s, m)) {
            ProofStep st;
            st.rule = ProofStep::Rule::kSumUpper;
            st.premise1 = index_of(s, p);
            changed |= AddArc(s, m, st);
          }
          if (has(s, q) && !has(s, m)) {
            ProofStep st;
            st.rule = ProofStep::Rule::kSumUpper;
            st.premise1 = index_of(s, q);
            changed |= AddArc(s, m, st);
          }
        } else {
          if (has(p, s) && !has(m, s)) {
            ProofStep st;
            st.rule = ProofStep::Rule::kProductLower;
            st.premise1 = index_of(p, s);
            changed |= AddArc(m, s, st);
          }
          if (has(q, s) && !has(m, s)) {
            ProofStep st;
            st.rule = ProofStep::Rule::kProductLower;
            st.premise1 = index_of(q, s);
            changed |= AddArc(m, s, st);
          }
          if (has(s, p) && has(s, q) && !has(s, m)) {
            ProofStep st;
            st.rule = ProofStep::Rule::kProductGlb;
            st.premise1 = index_of(s, p);
            st.premise2 = index_of(s, q);
            changed |= AddArc(s, m, st);
          }
        }
      }
    }
    // Step 7: transitivity over a snapshot.
    std::size_t snapshot = all_steps_.size();
    for (std::size_t i = 0; i < snapshot; ++i) {
      for (std::size_t j = 0; j < snapshot; ++j) {
        if (all_steps_[i].rhs != all_steps_[j].lhs) continue;
        ExprId a = all_steps_[i].lhs, c = all_steps_[j].rhs;
        if (arc_index_.count(ArcKey(a, c))) continue;
        ProofStep st;
        st.rule = ProofStep::Rule::kTransitivity;
        st.premise1 = static_cast<uint32_t>(i);
        st.premise2 = static_cast<uint32_t>(j);
        changed |= AddArc(a, c, st);
      }
    }
  }
  saturated_ = true;
}

Result<Proof> ProvenanceEngine::ProveLeq(ExprId lhs, ExprId rhs) {
  AddVertex(lhs);
  AddVertex(rhs);
  Saturate();
  auto it = arc_index_.find(ArcKey(lhs, rhs));
  if (it == arc_index_.end()) {
    return Status::NotFound("E does not imply " + arena_->ToString(lhs) +
                            " <= " + arena_->ToString(rhs));
  }
  // Backward reachability from the goal step; then topological emission.
  std::vector<uint32_t> order;
  std::set<uint32_t> visited;
  std::vector<uint32_t> stack{it->second};
  // Iterative postorder.
  while (!stack.empty()) {
    uint32_t s = stack.back();
    const ProofStep& step = all_steps_[s];
    bool ready = true;
    for (uint32_t prem : {step.premise1, step.premise2}) {
      if (prem != ProofStep::kNoPremise && !visited.count(prem)) {
        stack.push_back(prem);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    if (visited.insert(s).second) order.push_back(s);
  }
  // Remap premise indices.
  std::unordered_map<uint32_t, uint32_t> remap;
  Proof proof;
  for (uint32_t s : order) {
    ProofStep step = all_steps_[s];
    if (step.premise1 != ProofStep::kNoPremise) {
      step.premise1 = remap.at(step.premise1);
    }
    if (step.premise2 != ProofStep::kNoPremise) {
      step.premise2 = remap.at(step.premise2);
    }
    remap[s] = static_cast<uint32_t>(proof.steps.size());
    proof.steps.push_back(step);
  }
  return proof;
}

Result<Proof> ProvenanceEngine::Prove(const Pd& query) {
  PSEM_ASSIGN_OR_RETURN(Proof fwd, ProveLeq(query.lhs, query.rhs));
  if (!query.is_equation) return fwd;
  PSEM_ASSIGN_OR_RETURN(Proof bwd, ProveLeq(query.rhs, query.lhs));
  // Concatenate: offset the backward proof's premise indices.
  uint32_t offset = static_cast<uint32_t>(fwd.steps.size());
  for (ProofStep step : bwd.steps) {
    if (step.premise1 != ProofStep::kNoPremise) step.premise1 += offset;
    if (step.premise2 != ProofStep::kNoPremise) step.premise2 += offset;
    fwd.steps.push_back(step);
  }
  return fwd;
}

namespace {

const char* RuleName(ProofStep::Rule rule) {
  switch (rule) {
    case ProofStep::Rule::kReflexivity:
      return "reflexivity";
    case ProofStep::Rule::kHypothesis:
      return "hypothesis";
    case ProofStep::Rule::kSumLub:
      return "sum-lub";
    case ProofStep::Rule::kProductLower:
      return "product-lower";
    case ProofStep::Rule::kProductGlb:
      return "product-glb";
    case ProofStep::Rule::kSumUpper:
      return "sum-upper";
    case ProofStep::Rule::kTransitivity:
      return "transitivity";
  }
  return "?";
}

}  // namespace

Status ValidateProof(const ExprArena& arena,
                     const std::vector<Pd>& constraints, const Proof& proof) {
  if (proof.steps.empty()) {
    return Status::InvalidArgument("empty proof");
  }
  for (std::size_t i = 0; i < proof.steps.size(); ++i) {
    const ProofStep& s = proof.steps[i];
    auto premise_ok = [&](uint32_t p) {
      return p != ProofStep::kNoPremise && p < i;
    };
    auto fail = [&](const std::string& why) {
      return Status::FailedPrecondition("step " + std::to_string(i) + " (" +
                                        RuleName(s.rule) + "): " + why);
    };
    switch (s.rule) {
      case ProofStep::Rule::kReflexivity:
        if (s.lhs != s.rhs) return fail("lhs != rhs");
        if (!arena.IsAttr(s.lhs)) return fail("side not an attribute");
        break;
      case ProofStep::Rule::kHypothesis: {
        if (s.hypothesis_index >= constraints.size()) {
          return fail("bad hypothesis index");
        }
        const Pd& pd = constraints[s.hypothesis_index];
        bool fwd = pd.lhs == s.lhs && pd.rhs == s.rhs;
        bool bwd = pd.is_equation && pd.lhs == s.rhs && pd.rhs == s.lhs;
        if (!fwd && !bwd) return fail("arc does not match hypothesis");
        break;
      }
      case ProofStep::Rule::kSumLub: {
        if (arena.KindOf(s.lhs) != ExprKind::kSum) return fail("lhs not a sum");
        if (!premise_ok(s.premise1) || !premise_ok(s.premise2)) {
          return fail("bad premises");
        }
        const ProofStep& p1 = proof.steps[s.premise1];
        const ProofStep& p2 = proof.steps[s.premise2];
        if (p1.lhs != arena.LhsOf(s.lhs) || p2.lhs != arena.RhsOf(s.lhs) ||
            p1.rhs != s.rhs || p2.rhs != s.rhs) {
          return fail("premises do not justify sum-lub");
        }
        break;
      }
      case ProofStep::Rule::kProductLower: {
        if (arena.KindOf(s.lhs) != ExprKind::kProduct) {
          return fail("lhs not a product");
        }
        if (!premise_ok(s.premise1)) return fail("bad premise");
        const ProofStep& p1 = proof.steps[s.premise1];
        bool from_left = p1.lhs == arena.LhsOf(s.lhs) && p1.rhs == s.rhs;
        bool from_right = p1.lhs == arena.RhsOf(s.lhs) && p1.rhs == s.rhs;
        if (!from_left && !from_right) {
          return fail("premise does not justify product-lower");
        }
        break;
      }
      case ProofStep::Rule::kProductGlb: {
        if (arena.KindOf(s.rhs) != ExprKind::kProduct) {
          return fail("rhs not a product");
        }
        if (!premise_ok(s.premise1) || !premise_ok(s.premise2)) {
          return fail("bad premises");
        }
        const ProofStep& p1 = proof.steps[s.premise1];
        const ProofStep& p2 = proof.steps[s.premise2];
        if (p1.lhs != s.lhs || p2.lhs != s.lhs ||
            p1.rhs != arena.LhsOf(s.rhs) || p2.rhs != arena.RhsOf(s.rhs)) {
          return fail("premises do not justify product-glb");
        }
        break;
      }
      case ProofStep::Rule::kSumUpper: {
        if (arena.KindOf(s.rhs) != ExprKind::kSum) return fail("rhs not a sum");
        if (!premise_ok(s.premise1)) return fail("bad premise");
        const ProofStep& p1 = proof.steps[s.premise1];
        bool to_left = p1.lhs == s.lhs && p1.rhs == arena.LhsOf(s.rhs);
        bool to_right = p1.lhs == s.lhs && p1.rhs == arena.RhsOf(s.rhs);
        if (!to_left && !to_right) {
          return fail("premise does not justify sum-upper");
        }
        break;
      }
      case ProofStep::Rule::kTransitivity: {
        if (!premise_ok(s.premise1) || !premise_ok(s.premise2)) {
          return fail("bad premises");
        }
        const ProofStep& p1 = proof.steps[s.premise1];
        const ProofStep& p2 = proof.steps[s.premise2];
        if (p1.lhs != s.lhs || p1.rhs != p2.lhs || p2.rhs != s.rhs) {
          return fail("premises do not chain");
        }
        break;
      }
    }
  }
  return Status::OK();
}

std::string RenderProof(const ExprArena& arena, const Proof& proof) {
  std::string out;
  for (std::size_t i = 0; i < proof.steps.size(); ++i) {
    const ProofStep& s = proof.steps[i];
    out += std::to_string(i + 1) + ". " + arena.ToString(s.lhs) +
           " <= " + arena.ToString(s.rhs) + "   [" + RuleName(s.rule);
    if (s.rule == ProofStep::Rule::kHypothesis) {
      out += " E" + std::to_string(s.hypothesis_index + 1);
    }
    if (s.premise1 != ProofStep::kNoPremise) {
      out += " from " + std::to_string(s.premise1 + 1);
    }
    if (s.premise2 != ProofStep::kNoPremise) {
      out += ", " + std::to_string(s.premise2 + 1);
    }
    out += "]\n";
  }
  return out;
}

}  // namespace psem
