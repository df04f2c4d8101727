// Concurrency tests, run under -fsanitize=thread in CI. The library
// starts no threads of its own; these check that its const read paths —
// LeqInClosure on a prepared engine and the const-qualified
// WhitmanIterative decider — are safe to share across caller threads.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/implication.h"
#include "lattice/expr.h"
#include "lattice/whitman.h"
#include "util/rng.h"

namespace psem {
namespace {

ExprId RandomExpr(ExprArena* arena, Rng* rng, int num_attrs, int ops) {
  if (ops == 0) {
    return arena->Attr(
        std::string(1, static_cast<char>('A' + rng->Below(num_attrs))));
  }
  int left = static_cast<int>(rng->Below(static_cast<uint64_t>(ops)));
  ExprId l = RandomExpr(arena, rng, num_attrs, left);
  ExprId r = RandomExpr(arena, rng, num_attrs, ops - 1 - left);
  return rng->Chance(1, 2) ? arena->Product(l, r) : arena->Sum(l, r);
}

// --- concurrent const reads ------------------------------------------------------

TEST(ConcurrentReadTest, PreparedEngineServesManyReaderThreads) {
  ExprArena arena;
  std::vector<Pd> e;
  const int n = 32;
  for (int i = 0; i + 1 < n; ++i) {
    e.push_back(Pd::Leq(arena.Attr("A" + std::to_string(i)),
                        arena.Attr("A" + std::to_string(i + 1))));
  }
  PdImplicationEngine engine(&arena, e);
  std::vector<ExprId> attrs;
  for (int i = 0; i < n; ++i) attrs.push_back(arena.Attr("A" + std::to_string(i)));
  engine.Prepare(attrs);
  // A0 <= ... <= A31 closes to exactly the n*(n+1)/2 order arcs.
  ASSERT_EQ(engine.stats().num_arcs,
            static_cast<std::size_t>(n) * (n + 1) / 2);

  // LeqInClosure is const: four threads read the same closure with no
  // external synchronization.
  const PdImplicationEngine& shared = engine;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int k = 0; k < 5000; ++k) {
        int i = static_cast<int>(rng.Below(n));
        int j = static_cast<int>(rng.Below(n));
        bool got = shared.LeqInClosure(attrs[i], attrs[j]);
        if (got != (i <= j)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentReadTest, ConstWhitmanIterativeIsShareable) {
  // WhitmanIterative::Leq is const and keeps all state on the caller's
  // stack, so one decider over one const arena serves any number of
  // threads. (WhitmanMemo, by contrast, mutates its memo table and must
  // not be shared without locking — see lattice/whitman.h.)
  ExprArena arena;
  Rng setup_rng(55);
  struct Case {
    ExprId p, q;
    bool expect;
  };
  std::vector<Case> cases;
  WhitmanMemo reference(&arena);
  for (int i = 0; i < 60; ++i) {
    ExprId p = RandomExpr(&arena, &setup_rng, 3, 1 + i % 5);
    ExprId q = RandomExpr(&arena, &setup_rng, 3, 1 + (i + 1) % 5);
    cases.push_back({p, q, reference.Leq(p, q)});
  }
  const WhitmanIterative decider(&arena);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (const Case& c : cases) {
        if (decider.Leq(c.p, c.q) != c.expect) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace psem
