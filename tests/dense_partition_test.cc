// Differential property tests for the dense partition kernels
// (partition/dense.h) against the sparse reference API: Densify/Sparsify
// roundtrips, Product, Sum, Refines, GroupByValues, RefineBy, and the
// stripped (PLI) kernels including the fused StrippedProductRefines, over random populations plus the adversarial
// shapes — empty, singleton, disjoint populations, and many small blocks.
// The canonical-form contract means every comparison is exact equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "partition/dense.h"
#include "partition/partition.h"
#include "util/rng.h"

namespace psem {
namespace {

// Random subset of [0, world) of expected size world*num/den.
std::vector<Elem> RandomPopulation(Rng* rng, std::size_t world, uint64_t num,
                                   uint64_t den) {
  std::vector<Elem> pop;
  for (std::size_t e = 0; e < world; ++e) {
    if (rng->Chance(num, den)) pop.push_back(static_cast<Elem>(e));
  }
  return pop;
}

// Random partition of `population` into at most `max_blocks` blocks.
Partition RandomPartition(Rng* rng, const std::vector<Elem>& population,
                          std::size_t max_blocks) {
  if (population.empty()) return Partition();
  std::vector<uint32_t> labels(population.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<uint32_t>(rng->Below(max_blocks));
  }
  return Partition::FromLabels(population, labels);
}

// The shared universe for a pair of partitions: union of populations.
PartitionUniverse UniverseOf(const Partition& x, const Partition& y) {
  std::vector<Elem> all = x.population();
  all.insert(all.end(), y.population().begin(), y.population().end());
  return PartitionUniverse(std::move(all));
}

TEST(PartitionUniverseTest, InternsSortedDistinct) {
  PartitionUniverse u({7, 3, 3, 9, 7});
  EXPECT_EQ(u.size(), 3u);
  EXPECT_EQ(u.population(), (std::vector<Elem>{3, 7, 9}));
  EXPECT_EQ(*u.IndexOf(3), 0u);
  EXPECT_EQ(*u.IndexOf(9), 2u);
  EXPECT_FALSE(u.IndexOf(4).has_value());
}

TEST(PartitionUniverseTest, IdentityFastPath) {
  PartitionUniverse u = PartitionUniverse::Dense(5);
  EXPECT_EQ(u.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(*u.IndexOf(i), i);
  EXPECT_FALSE(u.IndexOf(5).has_value());
}

TEST(PartitionUniverseTest, DensifySparsifyRoundtrip) {
  Rng rng(0xd15ea5e);
  for (int it = 0; it < 200; ++it) {
    std::size_t world = 1 + rng.Below(40);
    std::vector<Elem> pop = RandomPopulation(&rng, world, 2, 3);
    Partition p = RandomPartition(&rng, pop, 1 + rng.Below(6));
    PartitionUniverse u(RandomPopulation(&rng, world, 1, 1));  // full world
    DensePartition d = u.Densify(p);
    EXPECT_EQ(d.present, p.population_size());
    EXPECT_EQ(d.num_blocks, p.num_blocks());
    EXPECT_EQ(u.Sparsify(d), p);
  }
}

TEST(DenseOpsTest, ProductAndSumMatchSparseReference) {
  Rng rng(0xfeedbeef);
  DenseOps ops;
  DensePartition prod, sum;
  int cases = 0;
  for (int it = 0; it < 300; ++it) {
    std::size_t world = 1 + rng.Below(60);
    Partition x = RandomPartition(&rng, RandomPopulation(&rng, world, 3, 4),
                                  1 + rng.Below(8));
    Partition y = RandomPartition(&rng, RandomPopulation(&rng, world, 3, 4),
                                  1 + rng.Below(8));
    PartitionUniverse u = UniverseOf(x, y);
    DensePartition dx = u.Densify(x);
    DensePartition dy = u.Densify(y);
    ops.Product(dx, dy, &prod);
    ops.Sum(dx, dy, &sum);
    EXPECT_EQ(u.Sparsify(prod), Partition::Product(x, y));
    EXPECT_EQ(u.Sparsify(sum), Partition::Sum(x, y));
    cases += 2;
  }
  EXPECT_GE(cases, 500);
}

TEST(DenseOpsTest, ProductAndSumAdversarialShapes) {
  DenseOps ops;
  DensePartition prod, sum;
  auto check = [&](const Partition& x, const Partition& y) {
    PartitionUniverse u = UniverseOf(x, y);
    DensePartition dx = u.Densify(x);
    DensePartition dy = u.Densify(y);
    ops.Product(dx, dy, &prod);
    ops.Sum(dx, dy, &sum);
    EXPECT_EQ(u.Sparsify(prod), Partition::Product(x, y));
    EXPECT_EQ(u.Sparsify(sum), Partition::Sum(x, y));
  };
  // Empty x empty.
  check(Partition(), Partition());
  // Empty x nonempty.
  check(Partition(), Partition::OneBlock({1, 2, 3}));
  // Singletons.
  check(Partition::OneBlock({5}), Partition::OneBlock({5}));
  check(Partition::OneBlock({5}), Partition::OneBlock({6}));
  // Fully disjoint populations: product has empty population, sum is the
  // side-by-side union.
  check(Partition::FromBlocks({{0, 1}, {2}}), Partition::FromBlocks({{7, 8}}));
  // Many small blocks: discrete x discrete, discrete x one-block, and the
  // worst case for the pair table — n/2 blocks of size 2 against its
  // shifted copy.
  std::vector<Elem> big(512);
  std::iota(big.begin(), big.end(), 0);
  check(Partition::Discrete(big), Partition::Discrete(big));
  check(Partition::Discrete(big), Partition::OneBlock(big));
  std::vector<uint32_t> pairs(big.size()), shifted(big.size());
  for (std::size_t i = 0; i < big.size(); ++i) {
    pairs[i] = static_cast<uint32_t>(i / 2);
    shifted[i] = static_cast<uint32_t>((i + 1) / 2 % (big.size() / 2));
  }
  check(Partition::FromLabels(big, pairs), Partition::FromLabels(big, shifted));
  // One component forms before the scan ends (the block-level sum stops
  // at element 2), followed by elements present in only one operand.
  Partition early_a = Partition::FromBlocks({{0, 1}, {2, 3}});
  Partition early_b = Partition::FromBlocks({{0, 2, 5, 6}, {1, 7, 9}});
  check(early_a, early_b);
  check(early_b, early_a);
  // ...and one that closes early but leaves b-only blocks outside it.
  check(early_a, Partition::FromBlocks({{0, 2}, {1, 8}, {5, 6}, {7}}));
  // Sums that reach the one-block top: on the last pair (parity + pairs)
  // and mid-scan against a partial operand (halves + {0,300}{1,2}).
  std::vector<uint32_t> halves(big.size()), parity(big.size());
  for (std::size_t i = 0; i < big.size(); ++i) {
    halves[i] = i < big.size() / 2 ? 0 : 1;
    parity[i] = static_cast<uint32_t>(i % 2);
  }
  check(Partition::FromLabels(big, parity), Partition::FromLabels(big, pairs));
  check(Partition::FromLabels(big, halves),
        Partition::FromBlocks({{0, 300}, {1, 2}}));
}

TEST(DenseOpsTest, RefinesMatchesSparseReference) {
  Rng rng(0xca11ab1e);
  DenseOps ops;
  DensePartition prod;
  for (int it = 0; it < 300; ++it) {
    std::size_t world = 1 + rng.Below(30);
    std::vector<Elem> pop = RandomPopulation(&rng, world, 2, 3);
    Partition x = RandomPartition(&rng, pop, 1 + rng.Below(6));
    Partition y = RandomPartition(&rng, pop, 1 + rng.Below(4));
    PartitionUniverse u = UniverseOf(x, y);
    DensePartition dx = u.Densify(x);
    DensePartition dy = u.Densify(y);
    EXPECT_EQ(ops.Refines(dx, dy), x.RefinesSamePopulation(y));
    // And the guaranteed-true direction: x*y refines both factors.
    ops.Product(dx, dy, &prod);
    EXPECT_TRUE(ops.Refines(prod, dx));
    EXPECT_TRUE(ops.Refines(prod, dy));
  }
  // Population mismatch is never a refinement.
  PartitionUniverse u(std::vector<Elem>{0, 1, 2});
  DensePartition a = u.Densify(Partition::OneBlock({0, 1}));
  DensePartition b = u.Densify(Partition::OneBlock({0, 1, 2}));
  EXPECT_FALSE(ops.Refines(a, b));
  EXPECT_FALSE(ops.Refines(b, a));
}

TEST(DenseOpsTest, GroupByValuesAndRefineByMatchProduct) {
  Rng rng(0x600dcafe);
  DenseOps ops;
  DensePartition grouped, refined, expect;
  for (int it = 0; it < 200; ++it) {
    std::size_t n = 1 + rng.Below(50);
    std::vector<uint32_t> values(n);
    for (auto& v : values) v = static_cast<uint32_t>(rng.Below(1 + n / 2));
    ops.GroupByValues(values, &grouped);
    EXPECT_EQ(grouped.present, n);
    // Same-value indices share a label; labels are first-occurrence.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        EXPECT_EQ(values[i] == values[j],
                  grouped.labels[i] == grouped.labels[j]);
      }
    }
    // RefineBy(a, values) == a * GroupByValues(values).
    PartitionUniverse u = PartitionUniverse::Dense(n);
    std::vector<Elem> pop(n);
    std::iota(pop.begin(), pop.end(), 0);
    DensePartition a =
        u.Densify(RandomPartition(&rng, pop, 1 + rng.Below(5)));
    ops.RefineBy(
        a, [&](std::size_t i) { return values[i]; }, &refined);
    ops.Product(a, grouped, &expect);
    EXPECT_EQ(refined, expect);
  }
}

TEST(DenseOpsTest, StripUnstripRoundtrip) {
  Rng rng(0x5742199);
  DenseOps ops;
  StrippedPartition sp;
  DensePartition back;
  for (int it = 0; it < 200; ++it) {
    std::size_t n = 1 + rng.Below(60);
    PartitionUniverse u = PartitionUniverse::Dense(n);
    std::vector<Elem> pop(n);
    std::iota(pop.begin(), pop.end(), 0);
    Partition p = RandomPartition(&rng, pop, 1 + rng.Below(n));
    DensePartition d = u.Densify(p);
    ops.Strip(d, &sp);
    EXPECT_EQ(sp.present, n);
    EXPECT_EQ(sp.num_blocks(), d.num_blocks);
    ops.Unstrip(sp, n, &back);
    EXPECT_EQ(back, d);
  }
  // All-singletons strips to nothing; one block strips to itself.
  PartitionUniverse u = PartitionUniverse::Dense(4);
  std::vector<Elem> pop{0, 1, 2, 3};
  ops.Strip(u.Densify(Partition::Discrete(pop)), &sp);
  EXPECT_EQ(sp.clustered(), 0u);
  EXPECT_EQ(sp.num_clusters(), 0u);
  EXPECT_EQ(sp.num_blocks(), 4u);
  ops.Strip(u.Densify(Partition::OneBlock(pop)), &sp);
  EXPECT_EQ(sp.clustered(), 4u);
  EXPECT_EQ(sp.num_clusters(), 1u);
  EXPECT_EQ(sp.num_blocks(), 1u);
}

TEST(DenseOpsTest, StrippedProductAndRefinesMatchDense) {
  Rng rng(0x7a5e11);
  DenseOps ops;
  StrippedPartition sx, sprod;
  DensePartition prod, back;
  for (int it = 0; it < 300; ++it) {
    std::size_t n = 1 + rng.Below(60);
    PartitionUniverse u = PartitionUniverse::Dense(n);
    std::vector<Elem> pop(n);
    std::iota(pop.begin(), pop.end(), 0);
    // Full-population operands: the same-relation column shape the
    // stripped kernels require.
    DensePartition x = u.Densify(RandomPartition(&rng, pop, 1 + rng.Below(8)));
    DensePartition col =
        u.Densify(RandomPartition(&rng, pop, 1 + rng.Below(8)));
    ops.Product(x, col, &prod);
    ops.Strip(x, &sx);
    ops.StrippedProduct(sx, col, &sprod);
    ops.Unstrip(sprod, n, &back);
    EXPECT_EQ(back, prod) << "n=" << n;
    EXPECT_EQ(sprod.num_blocks(), prod.num_blocks);
    // StrippedRefines(x, y) iff x refines y.
    EXPECT_EQ(ops.StrippedRefines(sx, col), ops.Refines(x, col));
    // x*col always refines col.
    ops.Strip(prod, &sprod);
    EXPECT_TRUE(ops.StrippedRefines(sprod, col));
  }
}

TEST(DenseOpsTest, StrippedProductRefinesMatchesBuiltProduct) {
  // The fused check against the two-step reference, with y drawn both as
  // a coarsening of x * col (mostly true) and at random (mostly false),
  // and with absent entries in y.
  Rng rng(0xf05ed);
  DenseOps ops;
  StrippedPartition sx, sprod;
  DensePartition prod;
  int trues = 0, falses = 0;
  for (int it = 0; it < 600; ++it) {
    std::size_t n = 1 + rng.Below(80);
    PartitionUniverse u = PartitionUniverse::Dense(n);
    std::vector<Elem> pop(n);
    std::iota(pop.begin(), pop.end(), 0);
    DensePartition x = u.Densify(RandomPartition(&rng, pop, 1 + rng.Below(6)));
    DensePartition col =
        u.Densify(RandomPartition(&rng, pop, 1 + rng.Below(n)));
    ops.Product(x, col, &prod);
    std::vector<uint32_t> merge(prod.num_blocks);
    const std::size_t y_blocks = 1 + rng.Below(prod.num_blocks);
    for (auto& m : merge) m = static_cast<uint32_t>(rng.Below(y_blocks));
    std::vector<Elem> ypop;
    std::vector<uint32_t> ylabels;
    const bool coarsen = rng.Chance(2, 3);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.Chance(1, 12)) continue;  // absent in y
      ypop.push_back(static_cast<Elem>(i));
      ylabels.push_back(coarsen ? merge[prod.labels[i]]
                                : static_cast<uint32_t>(rng.Below(4)));
    }
    DensePartition y = u.Densify(Partition::FromLabels(ypop, ylabels));
    ops.Strip(x, &sx);
    ops.StrippedProduct(sx, col, &sprod);
    bool want = ops.StrippedRefines(sprod, y);
    EXPECT_EQ(ops.StrippedProductRefines(sx, col, y), want) << "n=" << n;
    (want ? trues : falses)++;
  }
  EXPECT_GE(trues, 100);
  EXPECT_GE(falses, 100);
}

TEST(DenseOpsTest, ScratchReuseIsClean) {
  // Back-to-back calls of wildly different sizes through one DenseOps must
  // not leak state between calls (generation-stamped scratch).
  DenseOps ops;
  DensePartition out;
  std::vector<Elem> big(1000);
  std::iota(big.begin(), big.end(), 0);
  PartitionUniverse ub = PartitionUniverse::Dense(1000);
  DensePartition d1 = ub.Densify(Partition::Discrete(big));
  ops.Product(d1, d1, &out);
  EXPECT_EQ(out, d1);
  ops.Sum(d1, d1, &out);
  EXPECT_EQ(out, d1);
  PartitionUniverse us = PartitionUniverse::Dense(3);
  DensePartition d2 = us.Densify(Partition::FromBlocks({{0, 1}, {2}}));
  ops.Product(d2, d2, &out);
  EXPECT_EQ(out, d2);
  ops.Sum(d2, d2, &out);
  EXPECT_EQ(out, d2);

  // Unstrip -> Sum: Unstrip's relabel scratch (600 clusters) must not
  // leave Sum's out of step on a much smaller universe.
  std::vector<Elem> wide(1200);
  std::iota(wide.begin(), wide.end(), 0);
  std::vector<uint32_t> pairs(wide.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    pairs[i] = static_cast<uint32_t>(i / 2);
  }
  PartitionUniverse uw = PartitionUniverse::Dense(wide.size());
  DensePartition dpairs = uw.Densify(Partition::FromLabels(wide, pairs));
  StrippedPartition sp;
  ops.Strip(dpairs, &sp);
  ASSERT_EQ(sp.num_clusters(), 600u);
  ops.Unstrip(sp, wide.size(), &out);
  EXPECT_EQ(out, dpairs);
  PartitionUniverse u5 = PartitionUniverse::Dense(5);
  Partition p5 = Partition::FromBlocks({{0, 1}, {2}, {3, 4}});
  Partition q5 = Partition::FromBlocks({{1, 2}, {0}, {3}, {4}});
  DensePartition d5 = u5.Densify(p5);
  DensePartition e5 = u5.Densify(q5);
  ops.Sum(d5, e5, &out);
  EXPECT_EQ(u5.Sparsify(out), Partition::Sum(p5, q5));

  // StrippedProductRefines -> Refines -> Sum, large then small then
  // large again.
  DensePartition discrete = uw.Densify(Partition::Discrete(wide));
  EXPECT_TRUE(ops.StrippedProductRefines(sp, discrete, discrete));
  EXPECT_FALSE(ops.StrippedProductRefines(sp, dpairs, discrete));
  EXPECT_TRUE(ops.Refines(d5, d5));
  EXPECT_FALSE(ops.Refines(d5, e5));
  ops.Sum(e5, d5, &out);
  EXPECT_EQ(u5.Sparsify(out), Partition::Sum(q5, p5));
  ops.Strip(d5, &sp);
  EXPECT_TRUE(ops.StrippedProductRefines(sp, d5, d5));
  EXPECT_FALSE(ops.StrippedProductRefines(sp, d5, e5));
  ops.Sum(dpairs, discrete, &out);
  EXPECT_EQ(out, dpairs);
  ops.Unstrip(sp, 5, &out);
  EXPECT_EQ(out, d5);
}

}  // namespace
}  // namespace psem
