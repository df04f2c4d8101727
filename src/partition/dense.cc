#include "partition/dense.h"

#include <algorithm>
#include <cassert>

namespace psem {

namespace {

inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline std::size_t NextPow2(std::size_t x) {
  std::size_t p = 16;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

// --- PartitionUniverse ------------------------------------------------------

PartitionUniverse::PartitionUniverse(std::vector<Elem> population)
    : elems_(std::move(population)) {
  std::sort(elems_.begin(), elems_.end());
  elems_.erase(std::unique(elems_.begin(), elems_.end()), elems_.end());
  identity_ = true;
  for (std::size_t i = 0; i < elems_.size(); ++i) {
    if (elems_[i] != i) {
      identity_ = false;
      break;
    }
  }
}

PartitionUniverse PartitionUniverse::Dense(std::size_t n) {
  PartitionUniverse u;
  u.elems_.resize(n);
  for (std::size_t i = 0; i < n; ++i) u.elems_[i] = static_cast<Elem>(i);
  u.identity_ = true;
  return u;
}

std::optional<uint32_t> PartitionUniverse::IndexOf(Elem e) const {
  if (identity_) {
    if (e < elems_.size()) return e;
    return std::nullopt;
  }
  auto it = std::lower_bound(elems_.begin(), elems_.end(), e);
  if (it == elems_.end() || *it != e) return std::nullopt;
  return static_cast<uint32_t>(it - elems_.begin());
}

DensePartition PartitionUniverse::Densify(const Partition& p) const {
  DensePartition d;
  d.labels.assign(elems_.size(), DensePartition::kAbsent);
  const auto& pop = p.population();
  const auto& labels = p.labels();
  // Merge-walk: both populations are sorted ascending.
  std::size_t j = 0;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    while (j < elems_.size() && elems_[j] < pop[i]) ++j;
    assert(j < elems_.size() && elems_[j] == pop[i] &&
           "partition population not contained in universe");
    d.labels[j] = labels[i];
  }
  // p is canonical (first-occurrence in element order) and the universe
  // preserves element order, so the labels are already canonical.
  d.num_blocks = static_cast<uint32_t>(p.num_blocks());
  d.present = static_cast<uint32_t>(pop.size());
  return d;
}

Partition PartitionUniverse::Sparsify(const DensePartition& d) const {
  assert(d.labels.size() == elems_.size());
  std::vector<Elem> pop;
  std::vector<uint32_t> labels;
  pop.reserve(d.present);
  labels.reserve(d.present);
  for (std::size_t i = 0; i < d.labels.size(); ++i) {
    if (d.labels[i] == DensePartition::kAbsent) continue;
    pop.push_back(elems_[i]);
    labels.push_back(d.labels[i]);
  }
  // Canonical by construction (sorted elements, first-occurrence labels);
  // FromLabels would re-canonicalize to the identical representation, but
  // we can skip that O(n log n) by rebuilding directly.
  return Partition::FromLabels(std::move(pop), labels);
}

// --- DenseOps: pair table ---------------------------------------------------

void DenseOps::TableReset(std::size_t max_entries) {
  std::size_t cap = NextPow2(2 * max_entries + 1);
  if (tkey_.size() < cap) {
    tkey_.resize(cap);
    tval_.resize(cap);
    tgen_.assign(cap, 0);
    gen_ = 0;
  }
  tmask_ = tkey_.size() - 1;
  if (++gen_ == 0) {  // generation wrapped: hard reset
    std::fill(tgen_.begin(), tgen_.end(), 0);
    gen_ = 1;
  }
}

uint32_t DenseOps::TableIntern(uint64_t key, uint32_t* next) {
  std::size_t slot = static_cast<std::size_t>(Mix64(key)) & tmask_;
  while (tgen_[slot] == gen_) {
    if (tkey_[slot] == key) return tval_[slot];
    slot = (slot + 1) & tmask_;
  }
  tgen_[slot] = gen_;
  tkey_[slot] = key;
  tval_[slot] = (*next)++;
  return tval_[slot];
}

// --- DenseOps: union-find scratch ------------------------------------------

void DenseOps::UfReset(std::size_t n) {
  parent_.resize(n);
  urank_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
}

uint32_t DenseOps::UfFind(uint32_t x) {
  uint32_t root = x;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[x] != root) {
    uint32_t up = parent_[x];
    parent_[x] = root;
    x = up;
  }
  return root;
}

bool DenseOps::UfUnion(uint32_t x, uint32_t y) {
  uint32_t rx = UfFind(x);
  uint32_t ry = UfFind(y);
  if (rx == ry) return false;
  if (urank_[rx] < urank_[ry]) std::swap(rx, ry);
  parent_[ry] = rx;
  if (urank_[rx] == urank_[ry]) ++urank_[rx];
  return true;
}

void DenseOps::FirstsReset(std::size_t num_blocks) {
  if (first_idx_.size() < num_blocks) {
    first_idx_.resize(num_blocks);
    first_gen_.assign(num_blocks, 0);
    fgen_ = 0;
  }
  if (++fgen_ == 0) {
    std::fill(first_gen_.begin(), first_gen_.end(), 0);
    fgen_ = 1;
  }
}

void DenseOps::RelabelReset(std::size_t n) {
  if (relabel_.size() < n) {
    relabel_.resize(n);
    relabel_gen_.assign(n, 0);
    rgen_ = 0;
  }
  if (++rgen_ == 0) {
    std::fill(relabel_gen_.begin(), relabel_gen_.end(), 0);
    rgen_ = 1;
  }
}

// --- DenseOps: product ------------------------------------------------------

void DenseOps::Product(const DensePartition& a, const DensePartition& b,
                       DensePartition* out) {
  const std::size_t n = a.labels.size();
  assert(b.labels.size() == n && "operands must share a universe");
  out->labels.assign(n, DensePartition::kAbsent);
  TableReset(std::min(a.present, b.present));
  uint32_t next = 0;
  uint32_t present = 0;
  for (std::size_t i = 0; i < n; ++i) {
    uint32_t la = a.labels[i];
    if (la == DensePartition::kAbsent) continue;
    uint32_t lb = b.labels[i];
    if (lb == DensePartition::kAbsent) continue;
    uint64_t key = (static_cast<uint64_t>(la) << 32) | lb;
    out->labels[i] = TableIntern(key, &next);
    ++present;
  }
  out->num_blocks = next;
  out->present = present;
}

// --- DenseOps: sum ----------------------------------------------------------

void DenseOps::Sum(const DensePartition& a, const DensePartition& b,
                   DensePartition* out) {
  const std::size_t n = a.labels.size();
  assert(b.labels.size() == n && "operands must share a universe");
  // Section 3.1's chain condition at block granularity: node la is a's
  // block la, node na + lb is b's block lb, and an element present in
  // both operands joins its two blocks. Every label names a nonempty
  // block, so the components are exactly the blocks of a + b; once one
  // is left, no later element can change the answer.
  const uint32_t na = a.num_blocks;
  const std::size_t nodes = std::size_t{na} + b.num_blocks;
  UfReset(nodes);
  std::size_t components = nodes;
  for (std::size_t i = 0; i < n && components > 1; ++i) {
    uint32_t la = a.labels[i];
    uint32_t lb = b.labels[i];
    if (la == DensePartition::kAbsent || lb == DensePartition::kAbsent) {
      continue;
    }
    if (UfUnion(la, na + lb)) --components;
  }
  // Canonical relabel by first occurrence over the union population.
  out->labels.assign(n, DensePartition::kAbsent);
  RelabelReset(nodes);
  uint32_t next = 0;
  uint32_t present = 0;
  for (std::size_t i = 0; i < n; ++i) {
    uint32_t la = a.labels[i];
    uint32_t node;
    if (la != DensePartition::kAbsent) {
      node = la;
    } else if (b.labels[i] != DensePartition::kAbsent) {
      node = na + b.labels[i];
    } else {
      continue;
    }
    uint32_t root = UfFind(node);
    if (relabel_gen_[root] != rgen_) {
      relabel_gen_[root] = rgen_;
      relabel_[root] = next++;
    }
    out->labels[i] = relabel_[root];
    ++present;
  }
  out->num_blocks = next;
  out->present = present;
}

// --- DenseOps: grouping / refinement ---------------------------------------

void DenseOps::GroupByValues(std::span<const uint32_t> values,
                             DensePartition* out) {
  const std::size_t n = values.size();
  out->labels.resize(n);
  TableReset(n);
  uint32_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out->labels[i] = TableIntern(values[i], &next);
  }
  out->num_blocks = next;
  out->present = static_cast<uint32_t>(n);
}

bool DenseOps::Refines(const DensePartition& x, const DensePartition& y) {
  const std::size_t n = x.labels.size();
  if (y.labels.size() != n) return false;
  // image: x label -> y label, must be a function.
  FirstsReset(x.num_blocks);
  for (std::size_t i = 0; i < n; ++i) {
    uint32_t lx = x.labels[i];
    uint32_t ly = y.labels[i];
    if ((lx == DensePartition::kAbsent) != (ly == DensePartition::kAbsent)) {
      return false;  // populations differ
    }
    if (lx == DensePartition::kAbsent) continue;
    if (first_gen_[lx] != fgen_) {
      first_gen_[lx] = fgen_;
      first_idx_[lx] = ly;
    } else if (first_idx_[lx] != ly) {
      return false;
    }
  }
  return true;
}

// --- DenseOps: stripped kernels --------------------------------------------

void DenseOps::Strip(const DensePartition& p, StrippedPartition* out) {
  const std::size_t n = p.labels.size();
  out->flat.clear();
  out->offsets.clear();
  out->present = p.present;
  // Pass 1: block sizes. Pass 2: assign cluster slots (blocks of size
  // >= 2) and prefix offsets. Pass 3: scatter members ascending.
  ssize_.assign(p.num_blocks, 0);
  for (std::size_t i = 0; i < n; ++i) {
    uint32_t l = p.labels[i];
    if (l != DensePartition::kAbsent) ++ssize_[l];
  }
  sslot_.resize(p.num_blocks);
  uint32_t clusters = 0;
  std::size_t total = 0;
  for (uint32_t l = 0; l < p.num_blocks; ++l) {
    if (ssize_[l] >= 2) {
      sslot_[l] = clusters++;
      total += ssize_[l];
    } else {
      sslot_[l] = DensePartition::kAbsent;
    }
  }
  out->offsets.assign(clusters + 1, 0);
  for (uint32_t l = 0; l < p.num_blocks; ++l) {
    if (sslot_[l] != DensePartition::kAbsent) {
      out->offsets[sslot_[l] + 1] = ssize_[l];
    }
  }
  for (std::size_t c = 1; c < out->offsets.size(); ++c) {
    out->offsets[c] += out->offsets[c - 1];
  }
  out->flat.resize(total);
  scursor_.assign(out->offsets.begin(), out->offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    uint32_t l = p.labels[i];
    if (l == DensePartition::kAbsent) continue;
    uint32_t s = sslot_[l];
    if (s == DensePartition::kAbsent) continue;
    out->flat[scursor_[s]++] = static_cast<uint32_t>(i);
  }
}

void DenseOps::StrippedProduct(const StrippedPartition& x,
                               const DensePartition& col,
                               StrippedPartition* out) {
  assert(col.present == col.labels.size() &&
         "StrippedProduct requires a fully-present refining column");
  out->flat.clear();
  out->offsets.clear();
  out->offsets.push_back(0);
  out->present = x.present;
  if (bucket_of_.size() < col.num_blocks) {
    bucket_of_.resize(col.num_blocks);
    bucket_gen_.assign(col.num_blocks, 0);
    bggen_ = 0;
  }
  for (std::size_t c = 0; c + 1 < x.offsets.size(); ++c) {
    if (++bggen_ == 0) {
      std::fill(bucket_gen_.begin(), bucket_gen_.end(), 0);
      bggen_ = 1;
    }
    touched_.clear();
    std::size_t used = 0;
    for (uint32_t k = x.offsets[c]; k < x.offsets[c + 1]; ++k) {
      uint32_t i = x.flat[k];
      uint32_t v = col.labels[i];
      assert(v != DensePartition::kAbsent);
      std::vector<uint32_t>* bucket;
      if (bucket_gen_[v] != bggen_) {
        bucket_gen_[v] = bggen_;
        if (used == bucket_pool_.size()) bucket_pool_.emplace_back();
        bucket_of_[v] = static_cast<uint32_t>(used);
        bucket_pool_[used].clear();
        touched_.push_back(v);
        ++used;
      }
      bucket = &bucket_pool_[bucket_of_[v]];
      bucket->push_back(i);
    }
    // Emit sub-clusters of size >= 2 in order of first member (touched_
    // records first-appearance order; members are ascending because the
    // cluster scan was ascending).
    for (uint32_t v : touched_) {
      const std::vector<uint32_t>& bucket = bucket_pool_[bucket_of_[v]];
      if (bucket.size() < 2) continue;
      out->flat.insert(out->flat.end(), bucket.begin(), bucket.end());
      out->offsets.push_back(static_cast<uint32_t>(out->flat.size()));
    }
  }
}

bool DenseOps::StrippedProductRefines(const StrippedPartition& x,
                                      const DensePartition& col,
                                      const DensePartition& y) {
  assert(col.present == col.labels.size() &&
         "StrippedProductRefines requires a fully-present refining column");
  // Per cluster of x: col label -> y label of its first element. A second
  // element in the same (cluster, col) block must carry that same,
  // present, y label.
  for (std::size_t c = 0; c + 1 < x.offsets.size(); ++c) {
    FirstsReset(col.num_blocks);
    for (uint32_t k = x.offsets[c]; k < x.offsets[c + 1]; ++k) {
      uint32_t i = x.flat[k];
      uint32_t v = col.labels[i];
      uint32_t ly = y.labels[i];
      if (first_gen_[v] != fgen_) {
        first_gen_[v] = fgen_;
        first_idx_[v] = ly;
      } else if (first_idx_[v] != ly || ly == DensePartition::kAbsent) {
        return false;
      }
    }
  }
  return true;
}

bool DenseOps::StrippedRefines(const StrippedPartition& x,
                               const DensePartition& y) {
  for (std::size_t c = 0; c + 1 < x.offsets.size(); ++c) {
    uint32_t first = y.labels[x.flat[x.offsets[c]]];
    if (first == DensePartition::kAbsent) return false;
    for (uint32_t k = x.offsets[c] + 1; k < x.offsets[c + 1]; ++k) {
      uint32_t l = y.labels[x.flat[k]];
      if (l != first) return false;
    }
  }
  return true;
}

void DenseOps::Unstrip(const StrippedPartition& x, std::size_t n,
                       DensePartition* out) {
  out->labels.assign(n, DensePartition::kAbsent);
  // Mark clustered elements with their cluster id (offset by 1 so that 0
  // stays available), then assign canonical labels in one ascending pass.
  for (std::size_t c = 0; c + 1 < x.offsets.size(); ++c) {
    for (uint32_t k = x.offsets[c]; k < x.offsets[c + 1]; ++k) {
      out->labels[x.flat[k]] = static_cast<uint32_t>(c);
    }
  }
  // Canonical renumber: clusters get a label at their first element;
  // singletons get fresh labels.
  RelabelReset(x.num_clusters());
  uint32_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    uint32_t c = out->labels[i];
    if (c == DensePartition::kAbsent) {
      out->labels[i] = next++;  // singleton block
      continue;
    }
    if (relabel_gen_[c] != rgen_) {
      relabel_gen_[c] = rgen_;
      relabel_[c] = next++;
    }
    out->labels[i] = relabel_[c];
  }
  out->num_blocks = next;
  out->present = static_cast<uint32_t>(n);
}

}  // namespace psem
