#include "graph/graph.h"

#include <algorithm>
#include <queue>
#include <set>
#include <unordered_map>

#include "partition/canonical.h"
#include "partition/partition.h"
#include "util/rng.h"
#include "util/union_find.h"

namespace psem {

void Graph::AddEdge(uint32_t u, uint32_t v) {
  edges_.emplace_back(u, v);
}

std::vector<uint32_t> Graph::ComponentsUnionFind() const {
  UnionFind uf(num_vertices_);
  for (auto [u, v] : edges_) uf.Union(u, v);
  return uf.CanonicalLabels();
}

std::vector<uint32_t> Graph::ComponentsBfs() const {
  std::vector<std::vector<uint32_t>> adj(num_vertices_);
  for (auto [u, v] : edges_) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<uint32_t> label(num_vertices_, UINT32_MAX);
  uint32_t next = 0;
  for (uint32_t s = 0; s < num_vertices_; ++s) {
    if (label[s] != UINT32_MAX) continue;
    label[s] = next;
    std::queue<uint32_t> q;
    q.push(s);
    while (!q.empty()) {
      uint32_t u = q.front();
      q.pop();
      for (uint32_t v : adj[u]) {
        if (label[v] == UINT32_MAX) {
          label[v] = next;
          q.push(v);
        }
      }
    }
    ++next;
  }
  return label;
}

Graph Graph::Random(std::size_t n, std::size_t m, uint64_t seed) {
  Graph g(n);
  Rng rng(seed);
  std::set<std::pair<uint32_t, uint32_t>> used;
  std::size_t max_edges = n * (n - 1) / 2;
  m = std::min(m, max_edges);
  while (g.edges_.size() < m) {
    uint32_t u = static_cast<uint32_t>(rng.Below(n));
    uint32_t v = static_cast<uint32_t>(rng.Below(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (used.insert({u, v}).second) g.AddEdge(u, v);
  }
  return g;
}

std::size_t EncodeGraphRelation(const Graph& g, Database* db,
                                const std::string& rel_name,
                                const std::string& a_name,
                                const std::string& b_name,
                                const std::string& c_name) {
  std::vector<uint32_t> comp = g.ComponentsUnionFind();
  std::size_t ri = db->AddRelation(rel_name, {a_name, b_name, c_name});
  Relation& r = db->relation(ri);
  auto vname = [&](uint32_t v) { return 'v' + std::to_string(v); };
  auto cname = [&](uint32_t v) {
    return std::string("comp").append(std::to_string(comp[v]));
  };
  std::vector<bool> seen(g.num_vertices(), false);
  for (auto [u, v] : g.edges()) {
    r.AddRow(&db->symbols(), {vname(u), vname(v), cname(u)});
    r.AddRow(&db->symbols(), {vname(v), vname(u), cname(u)});
    r.AddRow(&db->symbols(), {vname(u), vname(u), cname(u)});
    r.AddRow(&db->symbols(), {vname(v), vname(v), cname(v)});
    seen[u] = seen[v] = true;
  }
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    if (!seen[v]) r.AddRow(&db->symbols(), {vname(v), vname(v), cname(v)});
  }
  return ri;
}

Result<std::vector<uint32_t>> ComponentsViaPdSemantics(
    const Database& db, std::size_t relation_index, std::size_t num_vertices,
    const std::string& a_name, const std::string& b_name) {
  const Relation& r = db.relation(relation_index);
  if (r.empty()) return std::vector<uint32_t>(num_vertices, UINT32_MAX);
  PSEM_ASSIGN_OR_RETURN(PartitionInterpretation interp,
                        CanonicalInterpretation(db, r));
  PSEM_ASSIGN_OR_RETURN(Partition pa, interp.AtomicPartition(a_name));
  PSEM_ASSIGN_OR_RETURN(Partition pb, interp.AtomicPartition(b_name));
  Partition sum = Partition::Sum(pa, pb);

  // Map each vertex to the block of any tuple mentioning it under A. In
  // the Example-e encoding every vertex of the graph appears under A.
  PSEM_ASSIGN_OR_RETURN(RelAttrId a_id, db.universe().Require(a_name));
  std::size_t a_col = r.schema().ColumnOf(a_id);
  if (a_col == RelationSchema::kNpos) {
    return Status::InvalidArgument("relation lacks attribute " + a_name);
  }
  std::vector<uint32_t> label(num_vertices, UINT32_MAX);
  for (uint32_t i = 0; i < r.size(); ++i) {
    const std::string& sym = db.symbols().NameOf(r.row(i)[a_col]);
    if (sym.size() < 2 || sym[0] != 'v') continue;
    uint32_t vertex = static_cast<uint32_t>(std::stoul(sym.substr(1)));
    if (vertex >= num_vertices) continue;
    auto block = sum.BlockOf(i);
    if (block.has_value()) label[vertex] = *block;
  }
  return label;
}

bool SameComponents(const std::vector<uint32_t>& x,
                    const std::vector<uint32_t>& y) {
  if (x.size() != y.size()) return false;
  std::unordered_map<uint32_t, uint32_t> xy, yx;
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto [it1, in1] = xy.emplace(x[i], y[i]);
    if (!in1 && it1->second != y[i]) return false;
    auto [it2, in2] = yx.emplace(y[i], x[i]);
    if (!in2 && it2->second != x[i]) return false;
  }
  return true;
}

}  // namespace psem
