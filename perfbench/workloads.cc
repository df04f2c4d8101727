#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/rng.h"

namespace perfbench {
namespace {

using psem::Rng;

// Decorrelated generator per (seed, purpose).
Rng MakeRng(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
             0x2545f4914f6cdd1dull);
}

std::string A(uint64_t i) { return "A" + std::to_string(i); }

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

// The op kinds of one epoch, in a seeded order. Epochs are short (50
// writes and 50 query_new each), so that a run holds dozens of them: the
// cost of these ops varies more from epoch to epoch, with the theory and
// with the host, than within one epoch.
std::vector<OpKind> Mix(Rng* rng, int queries, int queries_new, int writes,
                        int batches) {
  std::vector<OpKind> kinds;
  kinds.insert(kinds.end(), queries, OpKind::kQuery);
  kinds.insert(kinds.end(), queries_new, OpKind::kQueryNew);
  kinds.insert(kinds.end(), writes, OpKind::kWrite);
  kinds.insert(kinds.end(), batches, OpKind::kBatch);
  Shuffle(&kinds, rng);
  return kinds;
}

// `count` values in [0, n), one drawn uniformly from each of `count` equal
// strata, in seeded order. Stratifying keeps the spread of positions, and
// with it the cost mix, nearly the same from seed to seed.
std::vector<uint64_t> Stratified(Rng* rng, uint64_t count, uint64_t n) {
  std::vector<uint64_t> out;
  for (uint64_t k = 0; k < count; ++k) {
    const uint64_t lo = k * n / count, hi = (k + 1) * n / count;
    out.push_back(lo + rng->Below(std::max<uint64_t>(hi - lo, 1)));
  }
  Shuffle(&out, rng);
  return out;
}

// Zipf(theta) ranks over [0, n) (Gray et al., "Quickly generating
// billion-record synthetic databases", as used by YCSB).
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n) {
    for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(double(i), theta);
    zeta2_ = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2_ / zetan_);
  }
  uint64_t Next(Rng* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < zeta2_) return 1;
    const auto r = static_cast<uint64_t>(
        double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  uint64_t n_;
  double zetan_ = 0.0, zeta2_ = 0.0, alpha_ = 0.0, eta_ = 0.0;
};

Expect ExpectIf(bool implied) {
  return implied ? Expect::kImplied : Expect::kNotImplied;
}

// --- chain-serve ------------------------------------------------------------
//
// The chain A0 <= A1 <= ... <= A(n-1). On a chain, meet is min and join is
// max, so every verdict has an exact oracle: Ai*Ax <= Aj+Ay holds iff
// min(i, x) <= max(j, y). Writes keep it a chain: extensions add a new top
// element, shortcuts Ai <= Aj (i < j) are already implied.

constexpr uint64_t kChainN = 1024;  // a power of two (see pair_query).
constexpr double kChainZipfTheta = 0.99;

Plan MakeChainServe(uint64_t seed) {
  Rng rng = MakeRng(seed, 1);
  Plan p;
  p.snapshot = true;
  for (uint64_t i = 0; i + 1 < kChainN; ++i) {
    p.base.push_back(A(i) + " <= " + A(i + 1));
  }
  // Zipf-skewed (i, j) pairs over all n^2 pairs — far more than the
  // engine's 1024-entry verdict cache. Ranks map to pairs through an odd
  // multiplier mod n^2, a bijection because n^2 is a power of two.
  const Zipf zipf(kChainN * kChainN, kChainZipfTheta);
  const uint64_t mult = rng.Next() | 1, offset = rng.Next();
  auto pair_query = [&](std::vector<std::string>* texts,
                        std::vector<Expect>* expect) {
    const uint64_t item =
        (zipf.Next(&rng) * mult + offset) & (kChainN * kChainN - 1);
    const uint64_t i = item / kChainN, j = item % kChainN;
    texts->push_back(A(i) + " <= " + A(j));
    expect->push_back(ExpectIf(i <= j));
  };

  constexpr int kQueries = 2400, kQueriesNew = 50, kWrites = 50,
                kBatches = 8, kBatchSize = 256;
  std::vector<uint64_t> qi = Stratified(&rng, kQueriesNew, kChainN);
  std::vector<uint64_t> qx = Stratified(&rng, kQueriesNew, kChainN);
  std::vector<uint64_t> qj = Stratified(&rng, kQueriesNew, kChainN);
  std::vector<uint64_t> qy = Stratified(&rng, kQueriesNew, kChainN);

  uint64_t top = kChainN - 1;
  int nq = 0, nw = 0;
  for (OpKind kind : Mix(&rng, kQueries, kQueriesNew, kWrites, kBatches)) {
    Op op{kind, {}, {}};
    switch (kind) {
      case OpKind::kQuery:
        pair_query(&op.texts, &op.expect);
        break;
      case OpKind::kQueryNew: {
        const uint64_t i = qi[nq], x = qx[nq], j = qj[nq], y = qy[nq];
        ++nq;
        op.texts.push_back(A(i) + "*" + A(x) + " <= " + A(j) + "+" + A(y));
        op.expect.push_back(ExpectIf(std::min(i, x) <= std::max(j, y)));
        break;
      }
      case OpKind::kWrite:
        // Two writes in three extend the chain, so the write median sits
        // inside the incremental-closure mode, not between two modes. A
        // fixed pattern also fixes which writes the journal tail past the
        // last checkpoint holds, and with it the work recovery replays.
        if (nw++ % 3 != 2) {
          op.texts.push_back(A(top) + " <= " + A(top + 1));
          ++top;
        } else {
          const uint64_t i = rng.Below(kChainN - 1);
          const uint64_t j = i + 1 + rng.Below(kChainN - 1 - i);
          op.texts.push_back(A(i) + " <= " + A(j));
        }
        break;
      case OpKind::kBatch:
        for (int b = 0; b < kBatchSize; ++b) pair_query(&op.texts, &op.expect);
        break;
    }
    p.ops.push_back(std::move(op));
  }
  return p;
}

// --- dense-write ------------------------------------------------------------
//
// Random PDs over 16 attributes, each true in a hidden model: the chain
// lattice of 6 levels, attribute Aa at level a mod 6, product = min, sum =
// max. The model satisfies every constraint, so E never collapses (about
// half of the random queries stay unimplied) yet the closure is dense
// enough for the blocked kernel. By soundness, a query false in the model
// must not be implied: that bound checks every verdict. 120 base PDs keep
// the ops cheap enough for thousands of writes and queries with new
// subexpressions per run, and still give the cold closure a dense round.

constexpr uint64_t kDenseAttrs = 16;
constexpr int kDenseLevels = 6;

struct Side {
  std::string text;
  int level;  // value in the hidden model
};

Side RandomSide(Rng* rng, uint64_t ops, uint64_t num_attrs) {
  if (ops == 0) {
    const uint64_t a = rng->Below(num_attrs);
    return {A(a), static_cast<int>(a % kDenseLevels)};
  }
  const uint64_t left = rng->Below(ops);
  Side l = RandomSide(rng, left, num_attrs);
  Side r = RandomSide(rng, ops - 1 - left, num_attrs);
  const bool product = rng->Chance(1, 2);
  return {"(" + l.text + (product ? "*" : "+") + r.text + ")",
          product ? std::min(l.level, r.level) : std::max(l.level, r.level)};
}

Side RandomSideUpTo(Rng* rng, uint64_t max_ops, uint64_t num_attrs) {
  return RandomSide(rng, 1 + rng->Below(max_ops), num_attrs);
}

// A random PD oriented so that it holds in the hidden model.
std::pair<Side, Side> ModelTruePd(Rng* rng) {
  Side l = RandomSideUpTo(rng, 4, kDenseAttrs);
  Side r = RandomSideUpTo(rng, 4, kDenseAttrs);
  if (l.level > r.level || (l.level == r.level && rng->Chance(1, 2))) {
    std::swap(l, r);
  }
  return {std::move(l), std::move(r)};
}

Plan MakeDenseWrite(uint64_t seed) {
  Rng rng = MakeRng(seed, 2);
  Plan p;
  p.snapshot = true;
  p.cold_sample = 64;
  p.prefix_checks = 4;
  // Sides already in V: the only material a kQuery op may use.
  std::vector<Side> pool;
  auto query = [](const Side& l, const Side& r, Op* op) {
    op->texts.push_back(l.text + " <= " + r.text);
    op->expect.push_back(l.level <= r.level ? Expect::kNone
                                            : Expect::kNotImplied);
  };
  auto pool_query = [&](Op* op) {
    const Side& l = pool[rng.Below(pool.size())];
    const Side& r = pool[rng.Below(pool.size())];
    query(l, r, op);
  };
  // A new side joins or meets two base sides: one new vertex per side,
  // which keeps the cost of the incremental closures it triggers far more
  // uniform than fresh random trees would. Composing only base sides also
  // bounds the text length, so parse cost does not grow through the epoch.
  std::vector<Side> base_sides;
  auto compose = [&] {
    const Side& x = base_sides[rng.Below(base_sides.size())];
    const Side& y = base_sides[rng.Below(base_sides.size())];
    const bool product = rng.Chance(1, 2);
    return Side{"(" + x.text + (product ? "*" : "+") + y.text + ")",
                product ? std::min(x.level, y.level)
                        : std::max(x.level, y.level)};
  };
  auto new_query = [&](Op* op, bool grow_pool) {
    Side l = compose();
    Side r = compose();
    query(l, r, op);
    if (grow_pool) {
      pool.push_back(std::move(l));
      pool.push_back(std::move(r));
    }
  };

  constexpr int kBasePds = 120, kQueries = 2000, kQueriesNew = 50,
                kWrites = 50, kBatches = 4, kBatchSize = 64;
  for (int i = 0; i < kBasePds; ++i) {
    auto [l, r] = ModelTruePd(&rng);
    p.base.push_back(l.text + " <= " + r.text);
    pool.push_back(std::move(l));
    pool.push_back(std::move(r));
  }
  base_sides = pool;
  for (OpKind kind : Mix(&rng, kQueries, kQueriesNew, kWrites, kBatches)) {
    Op op{kind, {}, {}};
    switch (kind) {
      case OpKind::kQuery:
        pool_query(&op);
        break;
      case OpKind::kQueryNew:
        new_query(&op, /*grow_pool=*/true);
        break;
      case OpKind::kWrite: {
        Side l = compose();
        Side r = compose();
        if (l.level > r.level || (l.level == r.level && rng.Chance(1, 2))) {
          std::swap(l, r);
        }
        op.texts.push_back(l.text + " <= " + r.text);
        pool.push_back(std::move(l));
        pool.push_back(std::move(r));
        break;
      }
      case OpKind::kBatch:
        // Half already-known pairs, half new subexpressions: one shared
        // incremental closure per batch. Batch sides stay out of the pool
        // so kQuery ops never depend on batch contents.
        for (int b = 0; b < kBatchSize; ++b) {
          if (b % 2 == 0) {
            pool_query(&op);
          } else {
            new_query(&op, /*grow_pool=*/false);
          }
        }
        break;
    }
    p.ops.push_back(std::move(op));
  }
  return p;
}

// --- csv-discover -----------------------------------------------------------
//
// A 50k x 12 table over A0..A11 with planted structure:
//   A0 -> A1 -> A2                      (functions of A0 and A1)
//   A5 = A3 * A4                        (A5 encodes the pair (A3, A4))
//   A6 = A7 + A8                        (A6 is a component id shared by
//                                        A7 and A8 blocks)
//   A3 A9 -> A10                        (a function of two columns)
//   A11                                 noise
// Mining recovers these plus the accidental dependencies of a finite
// sample; both become the journal-only engine's constraints.

constexpr uint64_t kCsvRows = 50000;
constexpr uint64_t kCsvCols = 12;

std::string MakeCsv(Rng* rng) {
  std::vector<uint64_t> f1(2000), f2(300), f10(24 * 10);
  for (auto& v : f1) v = rng->Below(300);
  for (auto& v : f2) v = rng->Below(40);
  for (auto& v : f10) v = rng->Below(50);
  std::string csv;
  for (uint64_t c = 0; c < kCsvCols; ++c) csv += (c ? ",A" : "A") + std::to_string(c);
  csv += '\n';
  uint64_t row[kCsvCols];
  for (uint64_t r = 0; r < kCsvRows; ++r) {
    row[0] = rng->Below(2000);
    row[1] = f1[row[0]];
    row[2] = f2[row[1]];
    row[3] = rng->Below(24);
    row[4] = rng->Below(16);
    row[5] = row[3] * 16 + row[4];
    const uint64_t component = rng->Below(30);
    row[6] = component;
    row[7] = component * 6 + rng->Below(6);
    row[8] = component * 5 + rng->Below(5);
    row[9] = rng->Below(10);
    row[10] = f10[row[3] * 10 + row[9]];
    row[11] = rng->Below(7);
    for (uint64_t c = 0; c < kCsvCols; ++c) {
      if (c) csv += ',';
      csv += std::to_string(row[c]);
    }
    csv += '\n';
  }
  return csv;
}

// A user write that holds in the table: a planted dependency X <= Y
// weakened to X*Z1*Z2 <= Y+W1+W2 for random attributes Z and W. The new
// product and sum vertices give each write an incremental closure of the
// same order as a query_new, so the write latency is not the bare fsync
// (whose latency on a shared disk drifts far more than any bound).
std::string CsvWrite(Rng* rng) {
  static const char* const kPlanted[][2] = {
      {"A0", "A1"},    {"A0", "A2"}, {"A1", "A2"}, {"A3*A4", "A5"},
      {"A5", "A3"},    {"A5", "A4"}, {"A7", "A6"}, {"A8", "A6"},
      {"A3*A9", "A10"}};
  const auto& planted = kPlanted[rng->Below(std::size(kPlanted))];
  std::string lhs = planted[0];
  std::string rhs = planted[1];
  for (int e = 0; e < 2; ++e) lhs += "*" + A(rng->Below(kCsvCols));
  for (int e = 0; e < 2; ++e) rhs += "+" + A(rng->Below(kCsvCols));
  return lhs + " <= " + rhs;
}

std::string RandomQueryText(Rng* rng, uint64_t min_ops, uint64_t max_ops) {
  auto side = [&] {
    return RandomSide(rng, min_ops + rng->Below(max_ops - min_ops + 1),
                      kCsvCols)
        .text;
  };
  // Separate statements: operands of + are unsequenced, and the draws must
  // happen in one fixed order.
  std::string l = side();
  const char* rel = rng->Chance(1, 3) ? " = " : " <= ";
  return l + rel + side();
}

Plan MakeCsvDiscover(uint64_t seed) {
  Rng rng = MakeRng(seed, 3);
  Plan p;
  p.snapshot = false;
  p.cold_sample = 64;
  p.prefix_checks = 4;
  p.csv = MakeCsv(&rng);

  // The batch pool: 200 queries with small sides, well inside the
  // 1024-entry verdict cache, and few enough subexpressions to keep |V|
  // small. The first op asks all of them, which puts every pool
  // subexpression into V; after that kQuery ops draw from the pool.
  constexpr int kPool = 200, kQueries = 2000, kQueriesNew = 50,
                kWrites = 50, kBatches = 11, kBatchSize = 128;
  std::vector<std::string> pool;
  for (int i = 0; i < kPool; ++i) pool.push_back(RandomQueryText(&rng, 1, 2));
  Op first{OpKind::kBatch, pool, std::vector<Expect>(pool.size(), Expect::kNone)};
  p.ops.push_back(std::move(first));

  for (OpKind kind : Mix(&rng, kQueries, kQueriesNew, kWrites, kBatches)) {
    Op op{kind, {}, {}};
    switch (kind) {
      case OpKind::kQuery:
        op.texts.push_back(pool[rng.Below(pool.size())]);
        break;
      case OpKind::kQueryNew:
        // Three-operator sides: the pool has none, so each adds vertices.
        op.texts.push_back(RandomQueryText(&rng, 3, 3));
        break;
      case OpKind::kWrite:
        op.texts.push_back(CsvWrite(&rng));
        break;
      case OpKind::kBatch:
        for (int b = 0; b < kBatchSize; ++b) {
          op.texts.push_back(pool[rng.Below(pool.size())]);
        }
        break;
    }
    if (kind != OpKind::kWrite) op.expect.assign(op.texts.size(), Expect::kNone);
    p.ops.push_back(std::move(op));
  }
  return p;
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery: return "query";
    case OpKind::kQueryNew: return "query_new";
    case OpKind::kWrite: return "write";
    case OpKind::kBatch: return "batch";
  }
  return "?";
}

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kWorkloads = {
      {"chain-serve",
       "read-heavy serving over a 1024-attribute chain (~525k arcs): sparse "
       "closure, arc-heavy snapshots, Zipf pairs beyond the verdict cache, "
       "and an exact min/max oracle for every verdict",
       "the dense closure kernel (a chain never saturates a round)",
       MakeChainServe},
      {"dense-write",
       "write-heavy random theory whose cold closure runs dense rounds; |E| "
       "and |V| grow through the stream and recovery restores a dense "
       "matrix",
       "partition/discovery (no relation is loaded)",
       MakeDenseWrite},
      {"csv-discover",
       "profile a 50k x 12 CSV (partition refinement mines FDs and PD "
       "patterns), accept them durably into a journal-only engine, then "
       "answer cache-resident query batches and replay the journal",
       "the closure kernels (|V| stays small) and the snapshot path",
       MakeCsvDiscover},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
