#include "partition/partition.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "util/union_find.h"

namespace psem {

void Partition::Canonicalize() {
  // Sort by element, then renumber labels by first occurrence.
  std::vector<std::size_t> order(elems_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return elems_[a] < elems_[b]; });
  std::vector<Elem> sorted_elems(elems_.size());
  std::vector<uint32_t> sorted_labels(elems_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    sorted_elems[i] = elems_[order[i]];
    sorted_labels[i] = labels_[order[i]];
  }
  assert(std::adjacent_find(sorted_elems.begin(), sorted_elems.end()) ==
             sorted_elems.end() &&
         "duplicate elements in population");
  std::unordered_map<uint32_t, uint32_t> relabel;
  relabel.reserve(sorted_labels.size());
  uint32_t next = 0;
  for (auto& l : sorted_labels) {
    auto [it, inserted] = relabel.emplace(l, next);
    if (inserted) ++next;
    l = it->second;
  }
  elems_ = std::move(sorted_elems);
  labels_ = std::move(sorted_labels);
  num_blocks_ = next;
}

Partition Partition::FromBlocks(const std::vector<std::vector<Elem>>& blocks) {
  Partition p;
  uint32_t label = 0;
  for (const auto& block : blocks) {
    assert(!block.empty() && "blocks must be nonempty");
    for (Elem e : block) {
      p.elems_.push_back(e);
      p.labels_.push_back(label);
    }
    ++label;
  }
  p.Canonicalize();
  return p;
}

Partition Partition::Discrete(std::vector<Elem> population) {
  Partition p;
  p.elems_ = std::move(population);
  p.labels_.resize(p.elems_.size());
  for (uint32_t i = 0; i < p.labels_.size(); ++i) p.labels_[i] = i;
  p.Canonicalize();
  return p;
}

Partition Partition::OneBlock(std::vector<Elem> population) {
  Partition p;
  p.elems_ = std::move(population);
  p.labels_.assign(p.elems_.size(), 0);
  p.Canonicalize();
  return p;
}

Partition Partition::FromLabels(std::vector<Elem> elems,
                                const std::vector<uint32_t>& labels) {
  assert(elems.size() == labels.size());
  Partition p;
  p.elems_ = std::move(elems);
  p.labels_ = labels;
  p.Canonicalize();
  return p;
}

Partition Partition::Product(const Partition& a, const Partition& b) {
  // Merge-walk the two sorted populations; for common elements, the block
  // is the pair (label in a, label in b), renumbered canonically.
  Partition p;
  std::unordered_map<uint64_t, uint32_t> pair_label;
  std::size_t i = 0, j = 0;
  uint32_t next = 0;
  while (i < a.elems_.size() && j < b.elems_.size()) {
    if (a.elems_[i] < b.elems_[j]) {
      ++i;
    } else if (a.elems_[i] > b.elems_[j]) {
      ++j;
    } else {
      uint64_t key = (static_cast<uint64_t>(a.labels_[i]) << 32) | b.labels_[j];
      auto [it, inserted] = pair_label.emplace(key, next);
      if (inserted) ++next;
      p.elems_.push_back(a.elems_[i]);
      p.labels_.push_back(it->second);
      ++i;
      ++j;
    }
  }
  p.num_blocks_ = next;
  // Already sorted and canonically labeled (first-occurrence numbering in
  // element order).
  return p;
}

Partition Partition::Sum(const Partition& a, const Partition& b) {
  // Population union; union-find chains elements that share a block in
  // either operand (the chain condition of Section 3.1).
  std::vector<Elem> pop;
  pop.reserve(a.elems_.size() + b.elems_.size());
  std::merge(a.elems_.begin(), a.elems_.end(), b.elems_.begin(),
             b.elems_.end(), std::back_inserter(pop));
  pop.erase(std::unique(pop.begin(), pop.end()), pop.end());

  auto index_of = [&pop](Elem e) -> uint32_t {
    return static_cast<uint32_t>(
        std::lower_bound(pop.begin(), pop.end(), e) - pop.begin());
  };

  UnionFind uf(pop.size());
  auto chain = [&](const Partition& part) {
    // Union each element with its block's first element.
    std::unordered_map<uint32_t, uint32_t> first_of_block;
    first_of_block.reserve(part.num_blocks_);
    for (std::size_t k = 0; k < part.elems_.size(); ++k) {
      uint32_t idx = index_of(part.elems_[k]);
      auto [it, inserted] = first_of_block.emplace(part.labels_[k], idx);
      if (!inserted) uf.Union(it->second, idx);
    }
  };
  chain(a);
  chain(b);

  Partition p;
  p.elems_ = std::move(pop);
  std::vector<uint32_t> canon = uf.CanonicalLabels();
  p.labels_.assign(canon.begin(), canon.end());
  p.num_blocks_ = static_cast<uint32_t>(uf.num_sets());
  return p;
}

std::optional<uint32_t> Partition::BlockOf(Elem e) const {
  auto it = std::lower_bound(elems_.begin(), elems_.end(), e);
  if (it == elems_.end() || *it != e) return std::nullopt;
  return labels_[static_cast<std::size_t>(it - elems_.begin())];
}

std::vector<std::vector<Elem>> Partition::Blocks() const {
  std::vector<std::vector<Elem>> blocks(num_blocks_);
  for (std::size_t i = 0; i < elems_.size(); ++i) {
    blocks[labels_[i]].push_back(elems_[i]);
  }
  return blocks;
}

bool Partition::RefinesSamePopulation(const Partition& other) const {
  if (elems_ != other.elems_) return false;
  // Every block of *this must map into a single block of other.
  std::unordered_map<uint32_t, uint32_t> image;
  image.reserve(num_blocks_);
  for (std::size_t i = 0; i < elems_.size(); ++i) {
    auto [it, inserted] = image.emplace(labels_[i], other.labels_[i]);
    if (!inserted && it->second != other.labels_[i]) return false;
  }
  return true;
}

bool Partition::Leq(const Partition& other) const {
  return *this == Product(*this, other);
}

std::size_t Partition::Hash() const {
  std::size_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < elems_.size(); ++i) {
    h ^= elems_[i] + 0x9e3779b9u + (h << 6) + (h >> 2);
    h ^= labels_[i] + 0x85ebca6bu + (h << 6) + (h >> 2);
  }
  return h;
}

std::string Partition::ToString() const {
  auto blocks = Blocks();
  std::string out = "{";
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (b > 0) out += " |";
    for (Elem e : blocks[b]) {
      out += ' ' + std::to_string(e);
    }
  }
  out += " }";
  return out;
}

}  // namespace psem
