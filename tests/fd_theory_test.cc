// Tests for FdTheory: attribute-set closure (the linear algorithm of
// Section 5.3's citation [3]), implication, key enumeration, and minimal
// covers — validated against brute-force Armstrong-style search.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/fd_theory.h"
#include "util/rng.h"

namespace psem {
namespace {

AttrSet MakeSet(Universe* u, const std::vector<std::string>& names) {
  return u->MakeSet(names);
}

TEST(FdClosureTest, TextbookExample) {
  Universe u;
  FdTheory t(&u);
  ASSERT_TRUE(t.AddParsed("A -> B").ok());
  ASSERT_TRUE(t.AddParsed("B -> C").ok());
  ASSERT_TRUE(t.AddParsed("C D -> E").ok());
  AttrSet a_plus = t.Closure(MakeSet(&u, {"A"}));
  EXPECT_EQ(u.SetToString(a_plus), "A B C");
  AttrSet ad_plus = t.Closure(MakeSet(&u, {"A", "D"}));
  EXPECT_EQ(ad_plus.Count(), 5u);  // everything
}

TEST(FdClosureTest, ClosureIsExtensiveMonotoneIdempotent) {
  Rng rng(42);
  Universe u;
  const int n = 6;
  for (int i = 0; i < n; ++i) u.Intern(std::string(1, 'A' + i));
  for (int trial = 0; trial < 20; ++trial) {
    FdTheory t(&u);
    for (int f = 0; f < 4; ++f) {
      AttrSet lhs(n), rhs(n);
      lhs.Set(rng.Below(n));
      if (rng.Chance(1, 2)) lhs.Set(rng.Below(n));
      rhs.Set(rng.Below(n));
      t.Add(Fd{lhs, rhs});
    }
    AttrSet x(n), y(n);
    for (int a = 0; a < n; ++a) {
      if (rng.Chance(1, 3)) x.Set(a);
      if (rng.Chance(1, 3)) y.Set(a);
    }
    AttrSet xc = t.Closure(x);
    EXPECT_TRUE(x.IsSubsetOf(xc));                      // extensive
    EXPECT_EQ(t.Closure(xc), xc);                       // idempotent
    AttrSet xy = x;
    xy.UnionWith(y);
    EXPECT_TRUE(xc.IsSubsetOf(t.Closure(xy)));          // monotone
  }
}

TEST(FdImplicationTest, ArmstrongAxioms) {
  Universe u;
  FdTheory t(&u);
  ASSERT_TRUE(t.AddParsed("A -> B").ok());
  // Reflexivity.
  EXPECT_TRUE(t.Implies(*Fd::Parse(&u, "A B -> A")));
  // Augmentation.
  EXPECT_TRUE(t.Implies(*Fd::Parse(&u, "A C -> B C")));
  // Not implied.
  EXPECT_FALSE(t.Implies(*Fd::Parse(&u, "B -> A")));
}

TEST(FdImplicationTest, EquivalentTo) {
  Universe u;
  FdTheory t1(&u), t2(&u), t3(&u);
  ASSERT_TRUE(t1.AddParsed("A -> B").ok());
  ASSERT_TRUE(t1.AddParsed("B -> C").ok());
  ASSERT_TRUE(t2.AddParsed("A -> B C").ok());
  ASSERT_TRUE(t2.AddParsed("B -> C").ok());
  EXPECT_TRUE(t1.EquivalentTo(t2));
  ASSERT_TRUE(t3.AddParsed("A -> C").ok());
  EXPECT_FALSE(t1.EquivalentTo(t3));
}

TEST(FdKeysTest, SingleKey) {
  Universe u;
  FdTheory t(&u);
  ASSERT_TRUE(t.AddParsed("A -> B").ok());
  ASSERT_TRUE(t.AddParsed("B -> C").ok());
  AttrSet scheme = MakeSet(&u, {"A", "B", "C"});
  auto keys = t.Keys(scheme);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(u.SetToString(keys[0]), "A");
}

TEST(FdKeysTest, MultipleKeysCyclic) {
  // A -> B, B -> A over {A, B, C}: keys are AC and BC.
  Universe u;
  FdTheory t(&u);
  ASSERT_TRUE(t.AddParsed("A -> B").ok());
  ASSERT_TRUE(t.AddParsed("B -> A").ok());
  AttrSet scheme = MakeSet(&u, {"A", "B", "C"});
  auto keys = t.Keys(scheme);
  ASSERT_EQ(keys.size(), 2u);
  std::vector<std::string> names;
  for (const auto& k : keys) names.push_back(u.SetToString(k));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names[0], "A C");
  EXPECT_EQ(names[1], "B C");
}

TEST(FdKeysTest, AllSingletonsWhenEverythingEquivalent) {
  Universe u;
  FdTheory t(&u);
  ASSERT_TRUE(t.AddParsed("A -> B").ok());
  ASSERT_TRUE(t.AddParsed("B -> C").ok());
  ASSERT_TRUE(t.AddParsed("C -> A").ok());
  auto keys = t.Keys(MakeSet(&u, {"A", "B", "C"}));
  EXPECT_EQ(keys.size(), 3u);
  for (const auto& k : keys) EXPECT_EQ(k.Count(), 1u);
}

TEST(FdKeysTest, NoFdsMeansWholeSchemeIsKey) {
  Universe u;
  FdTheory t(&u);
  AttrSet scheme = MakeSet(&u, {"A", "B"});
  auto keys = t.Keys(scheme);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], scheme);
}

TEST(FdKeysTest, KeysAreMinimalAndDetermineScheme) {
  Rng rng(321);
  Universe u;
  const int n = 5;
  for (int i = 0; i < n; ++i) u.Intern(std::string(1, 'A' + i));
  AttrSet scheme(n);
  scheme.SetAll();
  for (int trial = 0; trial < 15; ++trial) {
    FdTheory t(&u);
    for (int f = 0; f < 3; ++f) {
      AttrSet lhs(n), rhs(n);
      lhs.Set(rng.Below(n));
      if (rng.Chance(1, 2)) lhs.Set(rng.Below(n));
      rhs.Set(rng.Below(n));
      t.Add(Fd{lhs, rhs});
    }
    auto keys = t.Keys(scheme);
    ASSERT_FALSE(keys.empty());
    for (const AttrSet& k : keys) {
      EXPECT_TRUE(scheme.IsSubsetOf(t.Closure(k)));
      // Minimality: dropping any attribute breaks it.
      k.ForEach([&](std::size_t a) {
        AttrSet smaller = k;
        smaller.Reset(a);
        if (smaller.Any()) {
          EXPECT_FALSE(scheme.IsSubsetOf(t.Closure(smaller)));
        }
      });
      // No key contains another.
      for (const AttrSet& k2 : keys) {
        if (!(k == k2)) {
          EXPECT_FALSE(k.IsSubsetOf(k2));
        }
      }
    }
  }
}

TEST(MinimalCoverTest, RemovesRedundancyAndStaysEquivalent) {
  Universe u;
  FdTheory t(&u);
  ASSERT_TRUE(t.AddParsed("A -> B C").ok());
  ASSERT_TRUE(t.AddParsed("B -> C").ok());
  ASSERT_TRUE(t.AddParsed("A -> C").ok());       // redundant
  ASSERT_TRUE(t.AddParsed("A B -> C").ok());     // extraneous B, redundant
  auto cover = t.MinimalCover();
  FdTheory min(&u);
  for (const Fd& fd : cover) min.Add(fd);
  EXPECT_TRUE(t.EquivalentTo(min));
  // A -> B and B -> C suffice.
  EXPECT_EQ(cover.size(), 2u);
  for (const Fd& fd : cover) {
    EXPECT_EQ(fd.rhs.Count(), 1u);  // singleton rhs
  }
}

TEST(MinimalCoverTest, RandomCoversAreEquivalentAndIrredundant) {
  Rng rng(99);
  Universe u;
  const int n = 5;
  for (int i = 0; i < n; ++i) u.Intern(std::string(1, 'A' + i));
  for (int trial = 0; trial < 15; ++trial) {
    FdTheory t(&u);
    for (int f = 0; f < 5; ++f) {
      AttrSet lhs(n), rhs(n);
      do {
        for (int a = 0; a < n; ++a) {
          if (rng.Chance(1, 3)) lhs.Set(a);
        }
      } while (!lhs.Any());
      do {
        for (int a = 0; a < n; ++a) {
          if (rng.Chance(1, 4)) rhs.Set(a);
        }
      } while (!rhs.Any());
      t.Add(Fd{lhs, rhs});
    }
    auto cover = t.MinimalCover();
    FdTheory min(&u);
    for (const Fd& fd : cover) min.Add(fd);
    EXPECT_TRUE(t.EquivalentTo(min));
    // Irredundant: removing any FD breaks equivalence.
    for (std::size_t i = 0; i < cover.size(); ++i) {
      FdTheory without(&u);
      for (std::size_t j = 0; j < cover.size(); ++j) {
        if (j != i) without.Add(cover[j]);
      }
      EXPECT_FALSE(without.Implies(cover[i]));
    }
  }
}

TEST(FdClosureTest, ClosureAgainstBruteForceDerivation) {
  // Brute force: saturate by applying FDs directly.
  Rng rng(777);
  Universe u;
  const int n = 5;
  for (int i = 0; i < n; ++i) u.Intern(std::string(1, 'A' + i));
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<Fd> fds;
    FdTheory t(&u);
    for (int f = 0; f < 4; ++f) {
      AttrSet lhs(n), rhs(n);
      do {
        for (int a = 0; a < n; ++a) {
          if (rng.Chance(1, 3)) lhs.Set(a);
        }
      } while (!lhs.Any());
      do {
        for (int a = 0; a < n; ++a) {
          if (rng.Chance(1, 3)) rhs.Set(a);
        }
      } while (!rhs.Any());
      fds.push_back(Fd{lhs, rhs});
      t.Add(fds.back());
    }
    AttrSet x(n);
    x.Set(rng.Below(n));
    AttrSet naive = x;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Fd& fd : fds) {
        if (fd.lhs.IsSubsetOf(naive)) {
          changed |= naive.UnionWith(fd.rhs);
        }
      }
    }
    EXPECT_EQ(t.Closure(x), naive);
  }
}

}  // namespace
}  // namespace psem
