#include "lattice/congruence.h"

#include <unordered_map>

namespace psem {

void CongruenceClosure::Register(ExprId e) {
  // Hash-consing interns operands first: no id below e exceeds e.
  while (classes_.size() <= e) {
    classes_.AddElement();
    is_registered_.push_back(false);
  }
  for (ExprId x : arena_->PostOrder(
           e, [this](ExprId v) { return is_registered_[v]; })) {
    if (is_registered_[x]) continue;
    is_registered_[x] = true;
    registered_.push_back(x);
  }
}

void CongruenceClosure::Merge(ExprId e1, ExprId e2) {
  classes_.Union(e1, e2);
}

bool CongruenceClosure::PropagateOnce() {
  // Signature: (kind, class(lhs), class(rhs)) -> representative node.
  struct Sig {
    uint8_t kind;
    uint32_t l, r;
    bool operator==(const Sig&) const = default;
  };
  struct SigHash {
    std::size_t operator()(const Sig& s) const {
      uint64_t h = s.kind;
      h = h * 0x9e3779b97f4a7c15ull + s.l;
      h = h * 0x9e3779b97f4a7c15ull + s.r;
      return static_cast<std::size_t>(h ^ (h >> 31));
    }
  };
  std::unordered_map<Sig, ExprId, SigHash> seen;
  bool merged = false;
  for (ExprId e : registered_) {
    if (arena_->IsAttr(e)) continue;
    Sig sig{static_cast<uint8_t>(arena_->KindOf(e)),
            classes_.Find(arena_->LhsOf(e)),
            classes_.Find(arena_->RhsOf(e))};
    auto [it, inserted] = seen.emplace(sig, e);
    if (!inserted && !classes_.Connected(it->second, e)) {
      Merge(it->second, e);
      merged = true;
    }
  }
  return merged;
}

void CongruenceClosure::AddEquation(ExprId e1, ExprId e2) {
  Register(e1);
  Register(e2);
  Merge(e1, e2);
  while (PropagateOnce()) {
  }
}

bool CongruenceClosure::Equivalent(ExprId e1, ExprId e2) {
  Register(e1);
  Register(e2);
  // Newly registered nodes may become congruent to existing ones.
  while (PropagateOnce()) {
  }
  return classes_.Connected(e1, e2);
}

std::size_t CongruenceClosure::NumClasses() {
  std::size_t classes = 0;
  std::vector<bool> seen(classes_.size(), false);
  for (ExprId e : registered_) {
    uint32_t root = classes_.Find(e);
    if (!seen[root]) {
      seen[root] = true;
      ++classes;
    }
  }
  return classes;
}

}  // namespace psem
