#include "workloads.h"

namespace psem {
namespace bench {

Rng MakeBenchRng(uint64_t stream) {
  // Offset each stream by a large odd constant so streams 0,1,2,... land
  // in unrelated regions of the splitmix64 sequence.
  return Rng(kBenchSeed + stream * 0x9e3779b97f4a7c15ull);
}

ExprId RandomExpr(ExprArena* arena, Rng* rng, int num_attrs, int ops) {
  if (ops == 0) {
    return arena->Attr("A" + std::to_string(rng->Below(num_attrs)));
  }
  int left = static_cast<int>(rng->Below(static_cast<uint64_t>(ops)));
  ExprId l = RandomExpr(arena, rng, num_attrs, left);
  ExprId r = RandomExpr(arena, rng, num_attrs, ops - 1 - left);
  return rng->Chance(1, 2) ? arena->Product(l, r) : arena->Sum(l, r);
}

std::vector<Pd> RandomTheory(ExprArena* arena, Rng* rng, int num_attrs,
                             int num_pds, int max_ops) {
  std::vector<Pd> pds;
  pds.reserve(num_pds);
  for (int i = 0; i < num_pds; ++i) {
    ExprId l = RandomExpr(arena, rng, num_attrs,
                          1 + static_cast<int>(rng->Below(max_ops)));
    ExprId r = RandomExpr(arena, rng, num_attrs,
                          1 + static_cast<int>(rng->Below(max_ops)));
    pds.push_back(rng->Chance(1, 2) ? Pd::Eq(l, r) : Pd::Leq(l, r));
  }
  return pds;
}

std::vector<Pd> RandomQueries(ExprArena* arena, Rng* rng, int num_attrs,
                              int num_queries, int max_ops) {
  std::vector<Pd> queries;
  queries.reserve(num_queries);
  for (int i = 0; i < num_queries; ++i) {
    ExprId l = RandomExpr(arena, rng, num_attrs,
                          1 + static_cast<int>(rng->Below(max_ops)));
    ExprId r = RandomExpr(arena, rng, num_attrs,
                          1 + static_cast<int>(rng->Below(max_ops)));
    queries.push_back(rng->Chance(1, 3) ? Pd::Eq(l, r) : Pd::Leq(l, r));
  }
  return queries;
}

std::vector<Fd> RandomFds(Universe* universe, Rng* rng, int num_attrs,
                          int num_fds, int max_lhs) {
  for (int i = 0; i < num_attrs; ++i) {
    universe->Intern("A" + std::to_string(i));
  }
  std::vector<Fd> fds;
  const std::size_t n = universe->size();
  for (int i = 0; i < num_fds; ++i) {
    AttrSet lhs(n), rhs(n);
    int lhs_size = 1 + static_cast<int>(rng->Below(max_lhs));
    for (int k = 0; k < lhs_size; ++k) {
      lhs.Set(*universe->Require("A" + std::to_string(rng->Below(num_attrs))));
    }
    rhs.Set(*universe->Require("A" + std::to_string(rng->Below(num_attrs))));
    fds.push_back(Fd{std::move(lhs), std::move(rhs)});
  }
  return fds;
}

void RandomFragmentedDatabase(Database* db, Rng* rng, int num_attrs,
                              int num_relations, int rows_per_relation,
                              int symbols_per_attr) {
  for (int r = 0; r < num_relations; ++r) {
    int a = static_cast<int>(rng->Below(num_attrs));
    int b = static_cast<int>(rng->Below(num_attrs));
    if (b == a) b = (a + 1) % num_attrs;
    std::size_t ri = db->AddRelation(
        "R" + std::to_string(r),
        {"A" + std::to_string(a), "A" + std::to_string(b)});
    for (int i = 0; i < rows_per_relation; ++i) {
      db->relation(ri).AddRow(
          &db->symbols(),
          {"v" + std::to_string(a) + "_" +
               std::to_string(rng->Below(symbols_per_attr)),
           "v" + std::to_string(b) + "_" +
               std::to_string(rng->Below(symbols_per_attr))});
    }
  }
}

std::vector<Pd> ChainTheory(ExprArena* arena, int n) {
  std::vector<Pd> pds;
  for (int i = 0; i + 1 < n; ++i) {
    pds.push_back(Pd::Leq(arena->Attr("A" + std::to_string(i)),
                          arena->Attr("A" + std::to_string(i + 1))));
  }
  return pds;
}

ExprId DeepExpr(ExprArena* arena, int depth, int num_attrs, bool start_sum) {
  if (depth == 0) {
    return arena->Attr("A" + std::to_string(depth % num_attrs));
  }
  // Children use distinct attribute phases so the tree does not collapse
  // under hash-consing.
  ExprId l = DeepExpr(arena, depth - 1, num_attrs, !start_sum);
  ExprId r = arena->Attr("A" + std::to_string(depth % num_attrs));
  return start_sum ? arena->Sum(l, r) : arena->Product(l, r);
}

std::string PlantedCsv(Rng* rng, int rows) {
  constexpr int kCols = 12;
  std::vector<uint64_t> f1(2000), f2(300), f10(24 * 10);
  for (auto& v : f1) v = rng->Below(300);
  for (auto& v : f2) v = rng->Below(40);
  for (auto& v : f10) v = rng->Below(50);
  std::string csv;
  for (int c = 0; c < kCols; ++c) {
    csv += c ? ",A" : "A";
    csv += std::to_string(c);
  }
  csv += '\n';
  uint64_t row[kCols];
  for (int r = 0; r < rows; ++r) {
    row[0] = rng->Below(2000);
    row[1] = f1[row[0]];
    row[2] = f2[row[1]];
    row[3] = rng->Below(24);
    row[4] = rng->Below(16);
    row[5] = row[3] * 16 + row[4];
    row[6] = rng->Below(30);
    row[7] = row[6] * 6 + rng->Below(6);
    row[8] = row[6] * 5 + rng->Below(5);
    row[9] = rng->Below(10);
    row[10] = f10[row[3] * 10 + row[9]];
    row[11] = rng->Below(7);
    for (int c = 0; c < kCols; ++c) {
      if (c) csv += ',';
      csv += std::to_string(row[c]);
    }
    csv += '\n';
  }
  return csv;
}

}  // namespace bench
}  // namespace psem
