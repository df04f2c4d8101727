// Unit tests for the utility substrate: Status/Result, DynamicBitset,
// UnionFind, StringInterner, Rng, string helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "util/bitset.h"
#include "util/interner.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/union_find.h"

namespace psem {
namespace {

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad expr");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad expr");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad expr");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kResourceExhausted, StatusCode::kInconsistent,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  PSEM_ASSIGN_OR_RETURN(int h, HalfOf(x));
  PSEM_ASSIGN_OR_RETURN(int q, HalfOf(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*QuarterOf(8), 2);
  EXPECT_FALSE(QuarterOf(6).ok());  // fails at the second step
  EXPECT_FALSE(QuarterOf(3).ok());  // fails at the first step
}

// --- DynamicBitset ----------------------------------------------------------

TEST(BitsetTest, SetResetTest) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.None());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitsetTest, SetAllRespectsSize) {
  DynamicBitset b(70);
  b.SetAll();
  EXPECT_EQ(b.Count(), 70u);
}

TEST(BitsetTest, UnionIntersectionSubtract) {
  DynamicBitset a(100), b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  DynamicBitset u = a;
  EXPECT_TRUE(u.UnionWith(b));
  EXPECT_EQ(u.Count(), 3u);
  EXPECT_FALSE(u.UnionWith(b));  // no change second time
  DynamicBitset i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(50));
  DynamicBitset d = a;
  d.SubtractWith(b);
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Test(1));
}

TEST(BitsetTest, IsSubsetOf) {
  DynamicBitset a(10), b(10);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  DynamicBitset c(10);
  c.Set(9);
  EXPECT_FALSE(c.IsSubsetOf(a));
  EXPECT_TRUE(c.IsSubsetOf(c));
}

TEST(BitsetTest, NextSetBitAndForEach) {
  DynamicBitset b(200);
  std::vector<std::size_t> want = {0, 63, 64, 127, 199};
  for (auto i : want) b.Set(i);
  std::vector<std::size_t> got;
  b.ForEach([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(b.NextSetBit(65), 127u);
  EXPECT_EQ(b.NextSetBit(200), 200u);
}

TEST(BitsetTest, ResizeGrowPreservesAndShrinkDrops) {
  DynamicBitset b(70);
  b.Set(0);
  b.Set(63);
  b.Set(69);
  b.Resize(200);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(69));
  EXPECT_EQ(b.Count(), 3u);  // new positions start clear
  b.Set(199);
  b.Resize(64);
  EXPECT_EQ(b.Count(), 2u);  // 69 and 199 dropped
  b.Resize(128);
  EXPECT_FALSE(b.Test(69));  // dropped bits do not resurrect
  b.SetAll();
  EXPECT_EQ(b.Count(), 128u);
}

// Zero-length bitsets are what an engine over an empty V hands to the
// snapshot encoder; every kernel must be total on them.
TEST(BitsetTest, ZeroLengthKernelsAreTotal) {
  DynamicBitset a, b, c;
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.num_words(), 0u);
  a.OrWith(b);
  EXPECT_EQ(a.OrInPlaceCountNew(b), 0u);
  EXPECT_EQ(c.OrAndInPlaceCountNew(a, b), 0u);
  EXPECT_FALSE(a.UnionWith(b));
  EXPECT_EQ(a.Count(), 0u);
  EXPECT_TRUE(a.None());
  EXPECT_EQ(a.NextSetBit(0), 0u);
  EXPECT_TRUE(a == b);
}

TEST(BitsetTest, OrInPlaceCountNewIsExactOnOddTailWords) {
  DynamicBitset dst(67), src(67), newly(67);
  dst.Set(0);
  dst.Set(66);
  src.Set(0);   // already present: not new
  src.Set(65);  // tail word, new
  src.Set(63);  // word boundary, new
  EXPECT_EQ(dst.OrInPlaceCountNew(src, &newly), 2u);
  EXPECT_EQ(newly.Count(), 2u);
  EXPECT_TRUE(newly.Test(65));
  EXPECT_TRUE(newly.Test(63));
  EXPECT_FALSE(newly.Test(0));
  // Second application: nothing fresh, `newly` untouched.
  EXPECT_EQ(dst.OrInPlaceCountNew(src, &newly), 0u);
  EXPECT_EQ(newly.Count(), 2u);
  EXPECT_EQ(dst.Count(), 4u);
}

TEST(BitsetTest, OrAndInPlaceCountNewIsExactOnOddTailWords) {
  DynamicBitset dst(67), a(67), b(67), newly(67);
  a.Set(3);
  a.Set(66);
  b.Set(66);
  b.Set(5);
  dst.Set(3);
  EXPECT_EQ(dst.OrAndInPlaceCountNew(a, b, &newly), 1u);  // only 66 is new
  EXPECT_TRUE(dst.Test(66));
  EXPECT_TRUE(dst.Test(3));
  EXPECT_EQ(newly.Count(), 1u);
  EXPECT_TRUE(newly.Test(66));
  EXPECT_EQ(dst.OrAndInPlaceCountNew(a, b, &newly), 0u);
}

TEST(BitsetTest, SelfAliasedKernelsAreIdempotent) {
  DynamicBitset a(130);
  a.Set(1);
  a.Set(64);
  a.Set(129);
  DynamicBitset orig = a;
  a.OrWith(a);
  EXPECT_TRUE(a == orig);
  EXPECT_FALSE(a.UnionWith(a));
  EXPECT_EQ(a.OrInPlaceCountNew(a), 0u);
  EXPECT_EQ(a.OrAndInPlaceCountNew(a, a), 0u);
  EXPECT_TRUE(a == orig);
}

// set_word is the untrusted-deserialization boundary (core/snapshot.cc):
// stray bits beyond size() must be rejected, not silently folded into
// Count()/Any()/the engine's arc audit.
TEST(BitsetTest, SetWordRejectsStrayTailBits) {
  DynamicBitset b(70);  // tail word holds bits 64..69
  EXPECT_TRUE(b.set_word(0, ~uint64_t{0}));
  EXPECT_TRUE(b.set_word(1, 0x3F));  // all six legal bits
  EXPECT_EQ(b.Count(), 70u);
  EXPECT_FALSE(b.set_word(1, uint64_t{1} << 6));  // first illegal bit
  EXPECT_FALSE(b.set_word(1, ~uint64_t{0}));
  EXPECT_EQ(b.word(1), 0x3Fu);  // rejected writes leave the word alone
  EXPECT_EQ(b.Count(), 70u);
  // A word-aligned size has no illegal tail positions.
  DynamicBitset aligned(128);
  EXPECT_TRUE(aligned.set_word(1, ~uint64_t{0}));
  EXPECT_EQ(aligned.Count(), 64u);
}

TEST(BitsetTest, OrInPlaceCountNewCountsExactlyTheFreshBits) {
  DynamicBitset dst(130), src(130), newly(130);
  dst.Set(0);
  dst.Set(64);
  dst.Set(129);
  src.Set(0);    // already present: not counted
  src.Set(1);    // fresh
  src.Set(64);   // already present
  src.Set(65);   // fresh
  src.Set(128);  // fresh, in the tail word
  EXPECT_EQ(dst.OrInPlaceCountNew(src, &newly), 3u);
  for (std::size_t i : {0u, 1u, 64u, 65u, 128u, 129u}) EXPECT_TRUE(dst.Test(i));
  EXPECT_EQ(dst.Count(), 6u);
  // `newly` holds exactly the fresh bits.
  EXPECT_EQ(newly.Count(), 3u);
  EXPECT_TRUE(newly.Test(1));
  EXPECT_TRUE(newly.Test(65));
  EXPECT_TRUE(newly.Test(128));
  // Re-running is a no-op: nothing is fresh the second time.
  EXPECT_EQ(dst.OrInPlaceCountNew(src, &newly), 0u);
  EXPECT_EQ(newly.Count(), 3u);
}

TEST(BitsetTest, OrInPlaceCountNewMatchesUnionOnRandomSets) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    // Exercise tail-word masking: sizes straddle word boundaries.
    std::size_t n = 1 + rng.Below(200);
    DynamicBitset a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.Below(3) == 0) a.Set(i);
      if (rng.Below(3) == 0) b.Set(i);
    }
    DynamicBitset want = a;
    want.UnionWith(b);
    DynamicBitset got = a;
    std::size_t before = got.Count();
    std::size_t added = got.OrInPlaceCountNew(b);
    EXPECT_EQ(got, want);
    EXPECT_EQ(added, got.Count() - before);
  }
}

TEST(BitsetTest, OrAndInPlaceCountNewMatchesUnionWithAnd) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t n = 1 + rng.Below(200);
    DynamicBitset dst(n), a(n), b(n), newly(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.Below(4) == 0) dst.Set(i);
      if (rng.Below(2) == 0) a.Set(i);
      if (rng.Below(2) == 0) b.Set(i);
    }
    DynamicBitset meet = a;
    meet.IntersectWith(b);
    DynamicBitset want = dst;
    want.UnionWith(meet);
    std::size_t before = dst.Count();
    std::size_t added = dst.OrAndInPlaceCountNew(a, b, &newly);
    EXPECT_EQ(dst, want);
    EXPECT_EQ(added, dst.Count() - before);
    // Recorded bits are exactly dst \ old-dst.
    EXPECT_EQ(newly.Count(), added);
    EXPECT_TRUE(newly.IsSubsetOf(dst));
  }
}

TEST(BitsetTest, OrWithMatchesUnionWith) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t n = 1 + rng.Below(200);  // straddles word boundaries
    DynamicBitset a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.Below(3) == 0) a.Set(i);
      if (rng.Below(3) == 0) b.Set(i);
    }
    DynamicBitset want = a;
    want.UnionWith(b);
    a.OrWith(b);
    EXPECT_EQ(a, want);
  }
}

TEST(BitsetTest, SpanBoundedKernelsTouchOnlyTheSpan) {
  DynamicBitset dst(300), src(300), newly(300), tagged;
  src.Set(70);
  src.Set(130);
  dst.Set(130);
  EXPECT_EQ(src.WordSpan(), (std::pair<std::size_t, std::size_t>{1, 3}));
  EXPECT_EQ(DynamicBitset(300).WordSpan(),
            (std::pair<std::size_t, std::size_t>{0, 0}));
  // A span that misses the source's bits adds nothing and materializes
  // nothing.
  EXPECT_EQ(dst.OrInPlaceCountNew(src, 3, 5, &newly, &tagged), 0u);
  EXPECT_EQ(tagged.size(), 0u);
  // The occupied span adds exactly the fresh bit, into both outputs.
  EXPECT_EQ(dst.OrInPlaceCountNew(src, 1, 3, &newly, &tagged), 1u);
  EXPECT_EQ(tagged.size(), 300u);
  EXPECT_TRUE(dst.Test(70) && dst.Test(130));
  EXPECT_EQ(newly.Count(), 1u);
  EXPECT_TRUE(newly.Test(70));
  EXPECT_EQ(tagged, newly);
  DynamicBitset meet(300);
  EXPECT_EQ(meet.OrAndInPlaceCountNew(src, dst, 1, 3), 2u);
  EXPECT_EQ(meet, src);
}

// The blocked transpose against a per-bit transpose, at sizes around
// the 64-bit tile edges and at sparse and dense fill. The kernel ORs into
// the destination, treats width-0 rows as empty, and must leave the tail
// bits past each column's width clear.
TEST(BitsetTest, BlockedTransposeMatchesPerBitTranspose) {
  Rng rng(2024);
  for (std::size_t n : {1, 63, 64, 65, 127, 128, 129, 1000}) {
    for (uint64_t fill_den : {64, 2}) {
      std::vector<DynamicBitset> rows(n, DynamicBitset(n));
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 7 == 3) {
          rows[i] = DynamicBitset();  // an unmaterialized row
          continue;
        }
        for (std::size_t j = 0; j < n; ++j) {
          if (rng.Below(fill_den) == 0) rows[i].Set(j);
        }
      }
      std::vector<DynamicBitset> cols(n, DynamicBitset(n));
      std::vector<DynamicBitset> want(n, DynamicBitset(n));
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.Below(16) == 0) {
          const std::size_t i = rng.Below(n);
          cols[j].Set(i);  // pre-existing bits must survive the OR
          want[j].Set(i);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        rows[i].ForEach([&](std::size_t j) { want[j].Set(i); });
      }
      DynamicBitset::OrTransposeInto(rows, &cols);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(cols[j], want[j])
            << "n " << n << " fill 1/" << fill_den << " column " << j;
        ASSERT_EQ(cols[j].Count(), want[j].Count());
      }
    }
  }
}

TEST(BitsetTest, CountNewKernelsOnZeroLengthSets) {
  DynamicBitset a(0), b(0), newly(0);
  EXPECT_EQ(a.OrInPlaceCountNew(b), 0u);
  EXPECT_EQ(a.OrAndInPlaceCountNew(b, b, &newly), 0u);
  a.OrWith(b);
  EXPECT_EQ(a.size(), 0u);
}

TEST(BitsetTest, EqualityAndHash) {
  DynamicBitset a(66), b(66);
  a.Set(65);
  b.Set(65);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Set(0);
  EXPECT_FALSE(a == b);
}

// --- UnionFind --------------------------------------------------------------

TEST(UnionFindTest, BasicUnions) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 2));
  EXPECT_EQ(uf.num_sets(), 4u);
}

TEST(UnionFindTest, CanonicalLabelsNumberedByFirstOccurrence) {
  UnionFind uf(6);
  uf.Union(3, 5);
  uf.Union(0, 4);
  auto labels = uf.CanonicalLabels();
  // 0 -> 0, 1 -> 1, 2 -> 2, 3 -> 3, 4 -> 0 (joined 0), 5 -> 3.
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[4], 0u);
  EXPECT_EQ(labels[3], labels[5]);
  EXPECT_NE(labels[1], labels[2]);
}

TEST(UnionFindTest, AddElement) {
  UnionFind uf(2);
  uint32_t id = uf.AddElement();
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(uf.num_sets(), 3u);
  uf.Union(0, id);
  EXPECT_TRUE(uf.Connected(0, 2));
}

TEST(UnionFindTest, RandomStressAgainstNaiveLabels) {
  Rng rng(123);
  const std::size_t n = 200;
  UnionFind uf(n);
  std::vector<uint32_t> naive(n);
  for (uint32_t i = 0; i < n; ++i) naive[i] = i;
  auto naive_union = [&](uint32_t a, uint32_t b) {
    uint32_t la = naive[a], lb = naive[b];
    if (la == lb) return;
    for (auto& l : naive) {
      if (l == lb) l = la;
    }
  };
  for (int step = 0; step < 500; ++step) {
    uint32_t a = static_cast<uint32_t>(rng.Below(n));
    uint32_t b = static_cast<uint32_t>(rng.Below(n));
    uf.Union(a, b);
    naive_union(a, b);
    if (step % 50 == 0) {
      uint32_t x = static_cast<uint32_t>(rng.Below(n));
      uint32_t y = static_cast<uint32_t>(rng.Below(n));
      EXPECT_EQ(uf.Connected(x, y), naive[x] == naive[y]);
    }
  }
  std::set<uint32_t> uf_classes, naive_classes;
  auto labels = uf.CanonicalLabels();
  for (uint32_t i = 0; i < n; ++i) {
    uf_classes.insert(labels[i]);
    naive_classes.insert(naive[i]);
  }
  EXPECT_EQ(uf_classes.size(), naive_classes.size());
  EXPECT_EQ(uf.num_sets(), uf_classes.size());
}

// --- StringInterner ---------------------------------------------------------

TEST(InternerTest, InternIsIdempotent) {
  StringInterner in;
  uint32_t a = in.Intern("alpha");
  uint32_t b = in.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("alpha"), a);
  EXPECT_EQ(in.NameOf(a), "alpha");
  EXPECT_EQ(in.size(), 2u);
}

TEST(InternerTest, LookupWithoutInterning) {
  StringInterner in;
  EXPECT_FALSE(in.Lookup("ghost").has_value());
  in.Intern("ghost");
  EXPECT_TRUE(in.Lookup("ghost").has_value());
}

TEST(InternerTest, DenseIdsInInsertionOrderAcrossGrowth) {
  // 10^5 names cross many table doublings; each must keep the id of its
  // first Intern, and ids must be 0..n-1 in insertion order.
  constexpr uint32_t kNames = 100000;
  StringInterner in;
  for (uint32_t i = 0; i < kNames; ++i) {
    ASSERT_EQ(in.Intern("n" + std::to_string(i)), i);
    if (i % 7 == 0) {
      ASSERT_EQ(in.Intern("n" + std::to_string(i / 2)), i / 2);
    }
  }
  ASSERT_EQ(in.size(), kNames);
  for (uint32_t i = 0; i < kNames; ++i) {
    const std::string name = "n" + std::to_string(i);
    ASSERT_EQ(in.NameOf(i), name);
    ASSERT_EQ(in.Intern(name), i);
    ASSERT_EQ(in.Lookup(name), std::optional<uint32_t>(i));
  }
  EXPECT_EQ(in.size(), kNames);
}

TEST(InternerTest, LookupOfAbsentNamesIsEmpty) {
  StringInterner in;
  EXPECT_FALSE(in.Lookup("").has_value());  // empty table
  for (uint32_t i = 0; i < 1000; ++i) in.Intern("n" + std::to_string(i));
  EXPECT_FALSE(in.Lookup("").has_value());
  for (uint32_t i = 0; i < 1000; ++i) {
    const std::string name = "n" + std::to_string(i);
    // One byte appended, dropped, or changed.
    EXPECT_FALSE(in.Lookup(name + "x").has_value()) << name;
    EXPECT_FALSE(in.Lookup(name.substr(1)).has_value()) << name;
    EXPECT_FALSE(in.Lookup("m" + name.substr(1)).has_value()) << name;
    EXPECT_FALSE(in.Lookup(name + '\0').has_value()) << name;
  }
  EXPECT_EQ(in.size(), 1000u);
  // The empty string is a name like any other.
  uint32_t empty = in.Intern("");
  EXPECT_EQ(empty, 1000u);
  EXPECT_EQ(in.Lookup(""), std::optional<uint32_t>(empty));
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(13), 13u);
  }
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    int64_t v = rng.Between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

// --- strings ------------------------------------------------------------------

TEST(StringsTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
}

TEST(StringsTest, SplitAndStrip) {
  auto parts = SplitAndStrip(" a, b ,, c ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, IsIdentifier) {
  EXPECT_TRUE(IsIdentifier("A"));
  EXPECT_TRUE(IsIdentifier("_tmp9"));
  EXPECT_FALSE(IsIdentifier("9a"));
  EXPECT_FALSE(IsIdentifier(""));
  EXPECT_FALSE(IsIdentifier("a-b"));
}

}  // namespace
}  // namespace psem
