// Tests for dependency discovery: discovered FDs agree with brute-force
// satisfaction, minimality holds, the Armstrong round trip recovers the
// original theory, PD-pattern mining finds the connectivity and
// composite-key structure planted in synthetic data, and both searches
// match brute-force references on random relations.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/armstrong.h"
#include "core/fd_theory.h"
#include "discovery/discovery.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace psem {
namespace {

TEST(ColumnPartitionTest, GroupsRowsByValue) {
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B"});
  Relation& r = db.relation(ri);
  r.AddRow(&db.symbols(), {"x", "1"});
  r.AddRow(&db.symbols(), {"y", "1"});
  r.AddRow(&db.symbols(), {"x", "2"});
  Partition pa = ColumnPartition(r, 0);
  EXPECT_EQ(pa.num_blocks(), 2u);
  EXPECT_EQ(*pa.BlockOf(0), *pa.BlockOf(2));
  Partition pb = ColumnPartition(r, 1);
  EXPECT_EQ(*pb.BlockOf(0), *pb.BlockOf(1));
}

TEST(DiscoverFdsTest, PlantedFdsFound) {
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B", "C"});
  Relation& r = db.relation(ri);
  // A determines B; C is free.
  r.AddRow(&db.symbols(), {"a1", "b1", "c1"});
  r.AddRow(&db.symbols(), {"a1", "b1", "c2"});
  r.AddRow(&db.symbols(), {"a2", "b2", "c1"});
  r.AddRow(&db.symbols(), {"a3", "b2", "c1"});
  auto fds = *DiscoverFds(db, r);
  auto has = [&](const char* text) {
    Fd want = *Fd::Parse(&db.universe(), text);
    for (const Fd& fd : fds) {
      if (fd.lhs == want.lhs && fd.rhs == want.rhs) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("A -> B"));
  EXPECT_FALSE(has("B -> A"));   // b2 maps to a2 and a3
  EXPECT_FALSE(has("A -> C"));   // a1 maps to c1 and c2
  // A C -> B holds but is not minimal (A -> B already reported).
  EXPECT_FALSE(has("A C -> B"));
}

TEST(DiscoverFdsTest, OnlyMinimalFdsReported) {
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B", "C"});
  Relation& r = db.relation(ri);
  r.AddRow(&db.symbols(), {"a1", "b1", "c1"});
  r.AddRow(&db.symbols(), {"a2", "b1", "c2"});
  auto fds = *DiscoverFds(db, r);
  for (const Fd& fd : fds) {
    // No reported lhs strictly contains another reported lhs with the
    // same rhs.
    for (const Fd& other : fds) {
      if (&fd == &other || !(fd.rhs == other.rhs)) continue;
      EXPECT_FALSE(other.lhs.IsSubsetOf(fd.lhs) && !(other.lhs == fd.lhs))
          << fd.ToString(db.universe()) << " subsumed by "
          << other.ToString(db.universe());
    }
  }
}

TEST(DiscoverFdsTest, AgreesWithSatisfactionBruteForce) {
  Rng rng(515);
  for (int trial = 0; trial < 15; ++trial) {
    Database db;
    std::size_t ri = db.AddRelation("R", {"A", "B", "C", "D"});
    Relation& r = db.relation(ri);
    int rows = 2 + static_cast<int>(rng.Below(6));
    for (int i = 0; i < rows; ++i) {
      r.AddRow(&db.symbols(), {"a" + std::to_string(rng.Below(3)),
                               "b" + std::to_string(rng.Below(2)),
                               "c" + std::to_string(rng.Below(3)),
                               "d" + std::to_string(rng.Below(2))});
    }
    FdDiscoveryOptions options;
    options.max_lhs_size = 3;
    auto found = *DiscoverFds(db, r, options);
    // Build a theory from the found FDs: every discovered FD must hold.
    for (const Fd& fd : found) {
      EXPECT_TRUE(*SatisfiesFd(r, fd)) << fd.ToString(db.universe());
    }
    // Completeness: any single-attribute-rhs FD that holds must be
    // implied by the discovered set.
    Universe* u = &db.universe();
    FdTheory theory(u);
    for (const Fd& fd : found) theory.Add(fd);
    const std::size_t n = u->size();
    for (uint32_t lm = 1; lm < 16; ++lm) {
      for (int b = 0; b < 4; ++b) {
        if (lm & (1u << b)) continue;
        AttrSet lhs(n), rhs(n);
        for (int a = 0; a < 4; ++a) {
          if (lm & (1u << a)) lhs.Set(r.schema().attrs[a]);
        }
        rhs.Set(r.schema().attrs[b]);
        Fd fd{lhs, rhs};
        if (*SatisfiesFd(r, fd)) {
          EXPECT_TRUE(theory.Implies(fd)) << fd.ToString(*u);
        }
      }
    }
  }
}

TEST(DiscoverFdsTest, ArmstrongRoundTrip) {
  // theory -> Armstrong relation -> discovery recovers an equivalent
  // theory. The tightest possible loop: exactness of the construction
  // and completeness of the search at once.
  Universe u;
  FdTheory t(&u);
  ASSERT_TRUE(t.AddParsed("A -> B").ok());
  ASSERT_TRUE(t.AddParsed("B C -> D").ok());
  AttrSet scheme = u.MakeSet({"A", "B", "C", "D"});
  Database db;
  auto ri = BuildArmstrongRelation(t, scheme, &db);
  ASSERT_TRUE(ri.ok());
  FdDiscoveryOptions options;
  options.max_lhs_size = 4;
  auto found = *DiscoverFds(db, db.relation(*ri), options);
  // Map the discovered FDs back into u's ids (names align: A, B, C, D).
  FdTheory recovered(&u);
  for (const Fd& fd : found) {
    AttrSet lhs(u.size()), rhs(u.size());
    fd.lhs.ForEach([&](std::size_t a) {
      lhs.Set(*u.Require(db.universe().NameOf(static_cast<RelAttrId>(a))));
    });
    fd.rhs.ForEach([&](std::size_t a) {
      rhs.Set(*u.Require(db.universe().NameOf(static_cast<RelAttrId>(a))));
    });
    recovered.Add(Fd{lhs, rhs});
  }
  EXPECT_TRUE(t.EquivalentTo(recovered));
}

TEST(DiscoverPdPatternsTest, GraphEncodingYieldsSumPattern) {
  Database db;
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  std::size_t ri = EncodeGraphRelation(g, &db);
  auto patterns = *DiscoverPdPatterns(db, db.relation(ri));
  bool found_sum = false;
  for (const PdPattern& p : patterns) {
    if (p.kind == PdPattern::Kind::kSum &&
        db.universe().NameOf(p.c) == "C") {
      found_sum = true;
      EXPECT_EQ(p.ToString(db.universe()), "C = A+B");
    }
  }
  EXPECT_TRUE(found_sum);
}

TEST(DiscoverPdPatternsTest, CompositeKeyYieldsProductPattern) {
  Database db;
  std::size_t ri = db.AddRelation("R", {"K", "A", "B"});
  Relation& r = db.relation(ri);
  // K enumerates the (A, B) combinations: K = A*B.
  int k = 0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      r.AddRow(&db.symbols(), {"k" + std::to_string(k++),
                               "a" + std::to_string(a),
                               "b" + std::to_string(b)});
    }
  }
  auto patterns = *DiscoverPdPatterns(db, r);
  bool found = false;
  for (const PdPattern& p : patterns) {
    if (p.kind == PdPattern::Kind::kProduct &&
        db.universe().NameOf(p.c) == "K") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiscoverPdPatternsTest, SumUpperOnlyWhenProper) {
  Database db;
  std::size_t ri = db.AddRelation("R", {"A", "B", "C"});
  Relation& r = db.relation(ri);
  // C refines the A/B components strictly.
  r.AddRow(&db.symbols(), {"x", "y", "c1"});
  r.AddRow(&db.symbols(), {"x", "z", "c2"});
  auto patterns = *DiscoverPdPatterns(db, r);
  bool upper = false, sum = false;
  for (const PdPattern& p : patterns) {
    if (db.universe().NameOf(p.c) != "C") continue;
    upper |= p.kind == PdPattern::Kind::kSumUpper;
    sum |= p.kind == PdPattern::Kind::kSum;
  }
  EXPECT_TRUE(upper);
  EXPECT_FALSE(sum);
}

// Random relation of 2-7 columns and 1-300 rows. Each column is constant,
// a key (domain = row count), small-domain, or a planted function of two
// or three earlier columns, so FDs show up at every lattice level.
std::size_t RandomRelation(Rng* rng, Database* db) {
  const std::size_t arity = 2 + rng->Below(6);
  const std::size_t rows = 1 + rng->Below(300);
  std::vector<std::string> names;
  std::vector<std::vector<uint64_t>> value(arity, std::vector<uint64_t>(rows));
  for (std::size_t c = 0; c < arity; ++c) {
    names.push_back(std::string(1, static_cast<char>('A' + c)));
    const uint64_t kind = rng->Below(c >= 2 ? 5 : 4);
    const uint64_t domain =
        kind == 0 ? 1
                  : kind == 1 ? rows
                              : 1 + rng->Below(std::min<uint64_t>(rows, 8));
    std::vector<std::size_t> from(kind == 4 ? 2 + rng->Below(2) : 0);
    for (std::size_t& f : from) f = rng->Below(c);
    for (std::size_t i = 0; i < rows; ++i) {
      uint64_t v = 0;
      for (std::size_t f : from) v = v * 7 + value[f][i];
      value[c][i] = kind == 4 ? v % (2 + rows / 4) : rng->Below(domain);
    }
  }
  std::size_t ri = db->AddRelation("R", names);
  Relation& r = db->relation(ri);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < arity; ++c) {
      row.push_back("v" + std::to_string(value[c][i]));
    }
    r.AddRow(&db->symbols(), row);
  }
  return ri;
}

TEST(DiscoveryDifferentialTest, FdsMatchBruteForceMinimalEnumeration) {
  // DiscoverFds against every minimal X -> a with 1 <= |X| <= the level
  // bound, in (level, mask, rhs) order, decided by SatisfiesFd alone.
  Rng rng(0xd15c0);
  std::size_t multi_column = 0;  // FDs with |X| >= 2 across all trials
  for (int trial = 0; trial < 48; ++trial) {
    Database db;
    const Relation& r = db.relation(RandomRelation(&rng, &db));
    const std::size_t arity = r.arity();
    const std::size_t n = db.universe().size();
    FdDiscoveryOptions options;
    options.max_lhs_size = 1 + trial % 4;
    auto fd_of = [&](uint32_t x, std::size_t a) {
      AttrSet lhs(n), rhs(n);
      for (std::size_t c = 0; c < arity; ++c) {
        if (x & (1u << c)) lhs.Set(r.schema().attrs[c]);
      }
      rhs.Set(r.schema().attrs[a]);
      return Fd{std::move(lhs), std::move(rhs)};
    };
    // det[x * arity + a]: X -> a holds. A superset of a determining lhs
    // determines a too, so SatisfiesFd runs only where no one-smaller
    // subset already does; X -> a is minimal exactly then.
    std::vector<char> det((std::size_t{1} << arity) * arity, 0);
    std::vector<Fd> want;
    for (std::size_t level = 1; level <= options.max_lhs_size; ++level) {
      for (uint32_t x = 1; x < (1u << arity); ++x) {
        if (static_cast<std::size_t>(__builtin_popcount(x)) != level) continue;
        for (std::size_t a = 0; a < arity; ++a) {
          if (x & (1u << a)) continue;
          bool implied = false;
          for (std::size_t c = 0; c < arity && level > 1; ++c) {
            if (x & (1u << c)) implied |= det[(x & ~(1u << c)) * arity + a];
          }
          det[x * arity + a] = implied || *SatisfiesFd(r, fd_of(x, a));
          if (det[x * arity + a] && !implied) {
            want.push_back(fd_of(x, a));
            multi_column += level > 1;
          }
        }
      }
    }
    auto got = DiscoverFds(db, r, options);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), want.size())
        << "trial " << trial << ": arity " << arity << ", " << r.size()
        << " rows, max_lhs " << options.max_lhs_size;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*got)[i], want[i])
          << "trial " << trial << " #" << i << ": got "
          << (*got)[i].ToString(db.universe()) << ", want "
          << want[i].ToString(db.universe());
    }
  }
  EXPECT_GE(multi_column, 50u);
}

TEST(DiscoveryDifferentialTest, PatternsMatchSparseReference) {
  // DiscoverPdPatterns against the paper-literal sparse operations over
  // ColumnPartition, as the same list in the same order.
  Rng rng(0x9a77e2);
  std::size_t found[3] = {0, 0, 0};  // per PdPattern::Kind, all trials
  for (int trial = 0; trial < 48; ++trial) {
    Database db;
    const Relation& r = db.relation(RandomRelation(&rng, &db));
    const std::size_t arity = r.arity();
    std::vector<Partition> column;
    for (std::size_t c = 0; c < arity; ++c) {
      column.push_back(ColumnPartition(r, c));
    }
    std::vector<PdPattern> want;
    for (std::size_t a = 0; a < arity; ++a) {
      for (std::size_t b = a + 1; b < arity; ++b) {
        Partition prod = Partition::Product(column[a], column[b]);
        Partition sum = Partition::Sum(column[a], column[b]);
        for (std::size_t c = 0; c < arity; ++c) {
          if (c == a || c == b) continue;
          RelAttrId ca = r.schema().attrs[a];
          RelAttrId cb = r.schema().attrs[b];
          RelAttrId cc = r.schema().attrs[c];
          if (column[c] == prod) {
            want.push_back({PdPattern::Kind::kProduct, cc, ca, cb});
          }
          if (column[c] == sum) {
            want.push_back({PdPattern::Kind::kSum, cc, ca, cb});
          } else if (column[c].RefinesSamePopulation(sum)) {
            want.push_back({PdPattern::Kind::kSumUpper, cc, ca, cb});
          }
        }
      }
    }
    auto got = DiscoverPdPatterns(db, r);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*got)[i].ToString(db.universe()),
                want[i].ToString(db.universe()))
          << "trial " << trial << " #" << i;
      ++found[static_cast<int>(want[i].kind)];
    }
  }
  for (std::size_t count : found) EXPECT_GE(count, 20u);
}

TEST(DiscoverFdsTest, EmptyAndWideInputsRejected) {
  Database db;
  std::size_t ri = db.AddRelation("R", {"A"});
  EXPECT_FALSE(DiscoverFds(db, db.relation(ri)).ok());
  EXPECT_FALSE(DiscoverPdPatterns(db, db.relation(ri)).ok());
}

}  // namespace
}  // namespace psem
