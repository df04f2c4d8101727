/// @file dense.h
/// @brief Dense partition kernels: interned populations, flat label arrays,
/// PLI-style stripped partitions, and allocation-free product/sum.

// The data path behind interpretation evaluation, dependency discovery,
// the chase's row grouping, and the Lemma 12.1 repair scan. The sparse
// `Partition` API (partition/partition.h) is the paper-literal reference:
// populations are arbitrary uint32 subsets, every operation allocates and
// hashes. The kernels here trade that generality for speed the way
// FD-profiling systems (TANE-family position-list indexes) do:
//
//  * a PartitionUniverse interns a population ONCE and remaps elements to
//    dense indices [0, n);
//  * a DensePartition is a flat label array over those indices (elements
//    outside the partition's population carry kAbsent), canonically
//    numbered by first occurrence so equality is vector equality;
//  * DenseOps implements product via single-pass pair-encoding into a
//    generation-stamped open-addressing table (no std::map/unordered_map
//    in the loop, no allocation in the steady state), and sum via
//    union-find over the operands' block labels (not their elements)
//    with reusable scratch buffers;
//  * a StrippedPartition elides singleton blocks (the PLI/"stripped
//    partition" representation), which makes refinement checks — the
//    inner loop of FD discovery — O(clustered elements) instead of
//    O(population). StrippedProductRefines answers "does x * col refine
//    y?" without building x * col, so discovery materializes only the
//    partitions a later step reuses.
//
// Canonical-form contract: every kernel numbers result labels by first
// occurrence in dense-index order, which coincides with the sparse API's
// element-order numbering, so Sparsify(kernel(Densify(x), Densify(y)))
// is bit-identical to the sparse reference operation. The differential
// tests in tests/dense_partition_test.cc enforce this on random, empty,
// singleton, disjoint-population, and adversarial many-small-block
// inputs.
//
// Thread-compatibility: PartitionUniverse and DensePartition are
// immutable after construction and safe to share. DenseOps carries
// mutable scratch and must not be shared between threads — give each
// worker its own (they are cheap to construct; buffers grow to the high
//-water mark and stay).

#ifndef PSEM_PARTITION_DENSE_H_
#define PSEM_PARTITION_DENSE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "partition/partition.h"

namespace psem {

/// A partition over an interned universe: labels[i] is the block label of
/// universe index i (dense in [0, num_blocks), numbered by first
/// occurrence), or kAbsent when index i is outside this partition's
/// population. Two DensePartitions over the same universe are equal iff
/// they are the same partition of the same sub-population.
struct DensePartition {
  static constexpr uint32_t kAbsent = UINT32_MAX;

  std::vector<uint32_t> labels;  ///< size = universe size.
  uint32_t num_blocks = 0;       ///< distinct non-absent labels.
  uint32_t present = 0;          ///< non-absent entries (population size).

  std::size_t size() const { return labels.size(); }
  bool operator==(const DensePartition&) const = default;

  std::size_t Hash() const {
    std::size_t h = 0xcbf29ce484222325ull;
    for (uint32_t l : labels) {
      h ^= l;
      h *= 0x100000001b3ull;
    }
    return h;
  }
};

/// Hash functor for unordered containers of DensePartition.
struct DensePartitionHash {
  std::size_t operator()(const DensePartition& p) const { return p.Hash(); }
};

/// An interned population: sorted distinct elements, with an element ->
/// dense index mapping. Build it once per workload; every partition over
/// (a subset of) the population is then a flat array.
class PartitionUniverse {
 public:
  PartitionUniverse() = default;

  /// Interns `population` (sorted + deduplicated internally).
  explicit PartitionUniverse(std::vector<Elem> population);

  /// The identity universe {0, 1, ..., n-1} — the common case for row
  /// index populations (discovery, chase, canonical interpretations).
  /// IndexOf is the identity; no search is performed.
  static PartitionUniverse Dense(std::size_t n);

  std::size_t size() const { return elems_.size(); }
  bool empty() const { return elems_.empty(); }
  const std::vector<Elem>& population() const { return elems_; }
  Elem ElemOf(uint32_t index) const { return elems_[index]; }

  /// Dense index of `e`, or nullopt when e is not in the universe.
  /// O(1) for identity universes, O(log n) otherwise.
  std::optional<uint32_t> IndexOf(Elem e) const;

  /// Remaps a sparse partition into this universe. Precondition: p's
  /// population is a subset of the universe (checked with assert).
  DensePartition Densify(const Partition& p) const;

  /// Converts back to the sparse canonical representation. Inverse of
  /// Densify; also canonicalizes kernel outputs for the sparse API.
  Partition Sparsify(const DensePartition& d) const;

 private:
  std::vector<Elem> elems_;  // sorted ascending, distinct
  bool identity_ = true;     // elems_[i] == i for all i
};

/// PLI-style stripped partition: only blocks of size >= 2 ("clusters")
/// are materialized, as ranges of dense indices; singleton blocks are
/// implicit. `present` carries the underlying population size so block
/// counts remain recoverable:
///   num_blocks = present - flat.size() + num_clusters().
struct StrippedPartition {
  std::vector<uint32_t> flat;     ///< concatenated clusters (indices asc).
  std::vector<uint32_t> offsets;  ///< cluster c = flat[offsets[c]..offsets[c+1]).
  uint32_t present = 0;           ///< population size incl. singletons.

  std::size_t num_clusters() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  /// Elements that live in non-singleton blocks.
  std::size_t clustered() const { return flat.size(); }
  /// Blocks of the underlying (unstripped) partition.
  uint32_t num_blocks() const {
    return present - static_cast<uint32_t>(flat.size()) +
           static_cast<uint32_t>(num_clusters());
  }
};

/// The kernel object: owns every scratch buffer (pair table, union-find
/// arrays, per-block firsts, relabeling map) so that repeated calls do
/// no allocation once the buffers have grown to the workload's size.
/// NOT thread-safe; one DenseOps per thread.
class DenseOps {
 public:
  DenseOps() = default;

  // --- the two lattice operations ----------------------------------------

  /// out = a * b (coarsest common refinement; population intersection).
  /// Single pass, pair-encoding (label_a, label_b) -> fresh label through
  /// the open-addressing table. Requires a.size() == b.size().
  void Product(const DensePartition& a, const DensePartition& b,
               DensePartition* out);

  /// out = a + b (finest common generalization; population union).
  /// Union-find over the na + nb block labels: an element present in both
  /// operands joins its a-block to its b-block, and the scan stops once
  /// one component is left. O(n + na + nb), no per-element union-find
  /// state. Requires a.size() == b.size().
  void Sum(const DensePartition& a, const DensePartition& b,
           DensePartition* out);

  // --- grouping / refinement builders ------------------------------------

  /// Partition of [0, values.size()) grouping equal values — the PLI
  /// builder for a relation column (values[i] = ValueId of row i).
  void GroupByValues(std::span<const uint32_t> values, DensePartition* out);

  /// out = a refined by value equality: the product of `a` with the
  /// partition grouping equal `value_of(i)`, fused into one pass. Indices
  /// absent in `a` stay absent. `value_of` is called once per present
  /// index, ascending.
  template <class ValueFn>
  void RefineBy(const DensePartition& a, ValueFn&& value_of,
                DensePartition* out) {
    const std::size_t n = a.labels.size();
    out->labels.assign(n, DensePartition::kAbsent);
    TableReset(a.present);
    uint32_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      uint32_t la = a.labels[i];
      if (la == DensePartition::kAbsent) continue;
      uint64_t key = (static_cast<uint64_t>(la) << 32) |
                     static_cast<uint64_t>(value_of(i));
      out->labels[i] = TableIntern(key, &next);
    }
    out->num_blocks = next;
    out->present = a.present;
  }

  /// True iff every block of `x` is contained in a block of `y` over the
  /// SAME population (the dense analogue of
  /// Partition::RefinesSamePopulation). Indices must be present in both
  /// or absent in both; a presence mismatch returns false.
  bool Refines(const DensePartition& x, const DensePartition& y);

  // --- stripped (PLI) kernels ---------------------------------------------

  /// Strips a dense partition: clusters ordered by first index, indices
  /// ascending within each cluster.
  void Strip(const DensePartition& p, StrippedPartition* out);

  /// out = x * col in stripped form — the TANE-style PLI intersection.
  /// Precondition: `col` covers the full universe (col.present ==
  /// col.size()), so the product loses no elements; this is the shape of
  /// every same-relation workload (columns all partition the row set).
  void StrippedProduct(const StrippedPartition& x, const DensePartition& col,
                       StrippedPartition* out);

  /// True iff the (unstripped) partition behind `x` refines `y`: every
  /// cluster of `x` lies inside one block of `y` and every clustered
  /// element is present in `y`. Singleton blocks refine trivially —
  /// that's the whole point of stripping. O(clustered(x)).
  bool StrippedRefines(const StrippedPartition& x, const DensePartition& y);

  /// True iff the (unstripped) partition x * col refines `y`, decided
  /// without building x * col: within each cluster of `x`, every `col`
  /// label must map to a single `y` label, and an element sharing its
  /// (cluster, col) block with another must be present in `y`. Equals
  /// StrippedRefines(StrippedProduct(x, col), y); allocates nothing.
  /// O(clustered(x)). Precondition as for StrippedProduct.
  bool StrippedProductRefines(const StrippedPartition& x,
                              const DensePartition& col,
                              const DensePartition& y);

  /// Reconstructs the dense form of a stripped partition over a universe
  /// of `n` fully-present elements (canonical labels). For tests and for
  /// consumers that need the unstripped result back.
  void Unstrip(const StrippedPartition& x, std::size_t n,
               DensePartition* out);

 private:
  // Generation-stamped open-addressing table: uint64 key -> uint32 label.
  // Reset is O(1) amortized (bump the generation); the arrays only grow.
  void TableReset(std::size_t max_entries);
  uint32_t TableIntern(uint64_t key, uint32_t* next);

  // Union-find scratch over [0, n) with trivial reset. UfUnion returns
  // whether x and y were in different sets.
  void UfReset(std::size_t n);
  uint32_t UfFind(uint32_t x);
  bool UfUnion(uint32_t x, uint32_t y);

  // Generation-stamped per-block "first index seen" map.
  void FirstsReset(std::size_t num_blocks);

  // Generation-stamped relabel map over [0, n): relabel_ and
  // relabel_gen_ always grow together, whichever kernel uses them.
  void RelabelReset(std::size_t n);

  std::vector<uint64_t> tkey_;
  std::vector<uint32_t> tval_;
  std::vector<uint32_t> tgen_;
  uint32_t gen_ = 0;
  std::size_t tmask_ = 0;

  std::vector<uint32_t> parent_;
  std::vector<uint8_t> urank_;

  std::vector<uint32_t> first_idx_;
  std::vector<uint32_t> first_gen_;
  uint32_t fgen_ = 0;

  std::vector<uint32_t> relabel_;
  std::vector<uint32_t> relabel_gen_;
  uint32_t rgen_ = 0;

  // Strip scratch: per-block sizes, block -> cluster slot, write cursors.
  std::vector<uint32_t> ssize_;
  std::vector<uint32_t> sslot_;
  std::vector<uint32_t> scursor_;

  // StrippedProduct scratch: bucket heads per probe value + a reusable
  // pool of bucket vectors.
  std::vector<uint32_t> bucket_of_;
  std::vector<uint32_t> bucket_gen_;
  uint32_t bggen_ = 0;
  std::vector<std::vector<uint32_t>> bucket_pool_;
  std::vector<uint32_t> touched_;
};

}  // namespace psem

#endif  // PSEM_PARTITION_DENSE_H_
