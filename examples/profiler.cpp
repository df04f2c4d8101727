// Data profiling with partition semantics: mine the FDs and PD patterns
// that hold in a dataset, then use the reasoning stack to post-process
// them — minimal cover, keys, and an Armstrong relation certifying the
// discovered theory.
//
// Run: ./build/examples/profiler

#include <cstdio>

#include "psem.h"

using namespace psem;

int main() {
  std::printf("== profiling a shipment dataset ==\n\n");

  // Synthetic data with planted structure:
  //   Order determines Customer and Region;
  //   Customer determines Region;
  //   Zone is the connected component of the (Depot, Hub) graph.
  Database db;
  std::size_t ri = db.AddRelation(
      "shipments", {"Order", "Customer", "Region", "Depot", "Hub", "Zone"});
  Relation& r = db.relation(ri);
  struct Row {
    const char *o, *c, *reg, *d, *h, *z;
  };
  Row rows[] = {
      {"o1", "ann", "east", "d1", "h1", "z1"},
      {"o2", "ann", "east", "d2", "h1", "z1"},  // d2-h1 joins z1
      {"o3", "bob", "east", "d2", "h2", "z1"},  // d2-h2 chains into z1
      {"o4", "eve", "west", "d3", "h3", "z2"},
      {"o5", "eve", "west", "d4", "h4", "z3"},
      {"o6", "kim", "west", "d4", "h4", "z3"},
  };
  for (const Row& row : rows) {
    r.AddRow(&db.symbols(), {row.o, row.c, row.reg, row.d, row.h, row.z});
  }
  std::printf("%s\n", r.ToString(db.universe(), db.symbols()).c_str());

  // 1. FD discovery.
  FdDiscoveryOptions options;
  options.max_lhs_size = 2;
  auto fds = *DiscoverFds(db, r, options);
  std::printf("minimal FDs (lhs size <= 2): %zu found\n", fds.size());
  FdTheory theory(&db.universe());
  for (const Fd& fd : fds) theory.Add(fd);
  for (const Fd& fd : theory.MinimalCover()) {
    std::printf("  %s\n", fd.ToString(db.universe()).c_str());
  }

  // 2. Keys of the relation under the discovered theory.
  AttrSet scheme = r.schema().ToAttrSet(db.universe().size());
  auto keys = theory.Keys(scheme);
  std::printf("\nminimal keys:\n");
  for (const AttrSet& k : keys) {
    std::printf("  { %s }\n", db.universe().SetToString(k).c_str());
  }

  // 3. PD patterns: the structure FDs cannot see.
  auto patterns = *DiscoverPdPatterns(db, r);
  std::printf("\nPD patterns:\n");
  for (const PdPattern& p : patterns) {
    const char* kind = p.kind == PdPattern::Kind::kProduct ? "product"
                       : p.kind == PdPattern::Kind::kSum   ? "sum"
                                                           : "sum-upper";
    std::printf("  [%-9s] %s\n", kind, p.ToString(db.universe()).c_str());
  }

  // 4. An Armstrong relation certifying the discovered FD theory: it
  // satisfies exactly the implied FDs, so a designer can eyeball what is
  // and is not enforced.
  Database cert;
  auto ai = BuildArmstrongRelation(theory, scheme, &cert);
  if (ai.ok()) {
    std::printf("\nArmstrong certificate (%zu rows):\n%s",
                cert.relation(*ai).size(),
                cert.relation(*ai).ToString(cert.universe(), cert.symbols())
                    .c_str());
  }

  // 5. Sanity: every discovered constraint really holds (Definition 7
  // for the PD patterns).
  ExprArena arena;
  bool all_hold = true;
  for (const PdPattern& p : patterns) {
    Pd pd = *arena.ParsePd(p.ToString(db.universe()));
    all_hold &= *RelationSatisfiesPd(db, r, arena, pd);
  }
  for (const Fd& fd : fds) {
    all_hold &= *SatisfiesFd(r, fd);
  }
  std::printf("\nall discovered constraints verified: %s\n",
              all_hold ? "yes" : "NO");

  // 6. Reasoning over the discovered theory, with the ALG engine's
  // instrumentation on display: load the PD patterns into a PdTheory,
  // answer a batch of implication queries against one shared closure,
  // then ask a few follow-ups (served incrementally / by bit probes of
  // the closed closure) and dump the AlgStats trajectory.
  PdTheory t;
  for (const PdPattern& p : patterns) {
    (void)t.AddParsed(p.ToString(db.universe()));
  }
  std::vector<std::string> queries = {
      "Order <= Customer", "Order <= Region",  "Customer <= Region",
      "Zone <= Depot + Hub", "Depot + Hub <= Zone", "Order <= Zone",
      "Order <= Customer * Region", "Customer <= Order",
  };
  auto verdicts = *t.BatchImpliesParsed(queries);
  std::printf("\nbatch implication over the mined PD theory:\n");
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::printf("  E |= %-28s %s\n", queries[i].c_str(),
                verdicts[i] ? "yes" : "no");
  }
  // Re-ask two of them (bit probes, no closure) and one novel query
  // (extends V and re-closes only the dirty frontier).
  (void)*t.ImpliesParsed(queries[0]);
  (void)*t.ImpliesParsed(queries[3]);
  (void)*t.ImpliesParsed("Order * Depot <= Region + Zone + Hub");

  const AlgStats& stats = t.engine().stats();
  std::printf("\nALG engine stats:\n");
  std::printf("  |V| = %zu vertices, %zu arcs in closed Gamma\n",
              stats.num_vertices, stats.num_arcs);
  std::printf("  closures: %zu cold, %zu incremental\n", stats.cold_closures,
              stats.incremental_closures);
  std::printf("  last closure: %zu passes, arc deltas per pass:",
              stats.passes);
  for (std::size_t d : stats.pass_arc_delta) std::printf(" +%zu", d);
  std::printf("\n");
  std::printf(
      "  phase wall-time: seed %.1fus, rules %.1fus, transpose %.1fus "
      "(closure total %.1fus)\n",
      stats.seed_seconds * 1e6, stats.rules_seconds * 1e6,
      stats.transpose_seconds * 1e6, stats.closure_seconds * 1e6);
  return all_hold ? 0 : 1;
}
