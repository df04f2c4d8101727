#include "consistency/cad.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "util/failpoint.h"

namespace psem {

namespace {

constexpr ValueId kHole = UINT32_MAX;

// Deadline/cancel poll period of the governed search, in decision nodes.
constexpr uint64_t kCadCheckStride = 1024;

struct CadSearch {
  const std::vector<Fd>& fds;
  std::size_t width;
  std::vector<std::vector<ValueId>>& rows;
  const std::vector<std::vector<ValueId>>& domains;  // per attribute
  std::vector<std::pair<uint32_t, uint32_t>> holes;  // (row, col)
  // FDs (as column lists) touching each column.
  std::vector<std::vector<uint32_t>> fds_on_col;
  std::vector<std::vector<std::size_t>> fd_x, fd_y;
  const ExecContext& ctx;
  uint64_t nodes = 0;
  uint64_t budget;
  bool governed;
  bool exhausted = false;
  Status status;  // why the search stopped early (set iff exhausted)

  CadSearch(const std::vector<Fd>& fds_in, std::size_t width_in,
            std::vector<std::vector<ValueId>>& rows_in,
            const std::vector<std::vector<ValueId>>& domains_in,
            uint64_t budget_in, const ExecContext& ctx_in)
      : fds(fds_in),
        width(width_in),
        rows(rows_in),
        domains(domains_in),
        ctx(ctx_in),
        budget(budget_in),
        governed(!ctx_in.unbounded()) {
    if (ctx.max_solver_nodes() != 0) {
      budget = std::min(budget, ctx.max_solver_nodes());
    }
    fd_x.resize(fds.size());
    fd_y.resize(fds.size());
    fds_on_col.resize(width);
    for (uint32_t f = 0; f < fds.size(); ++f) {
      fds[f].lhs.ForEach([&](std::size_t a) {
        if (a < width) {
          fd_x[f].push_back(a);
          fds_on_col[a].push_back(f);
        }
      });
      fds[f].rhs.ForEach([&](std::size_t a) {
        if (a < width) {
          fd_y[f].push_back(a);
          fds_on_col[a].push_back(f);
        }
      });
    }
    for (uint32_t r = 0; r < rows.size(); ++r) {
      for (uint32_t c = 0; c < width; ++c) {
        if (rows[r][c] == kHole) holes.emplace_back(r, c);
      }
    }
  }

  // Checks FD f between rows r1, r2 under the partial assignment: returns
  // false only on a definite violation (X fully assigned and equal; some Y
  // assigned in both and different).
  bool PairOk(uint32_t f, uint32_t r1, uint32_t r2) const {
    for (std::size_t c : fd_x[f]) {
      ValueId a = rows[r1][c], b = rows[r2][c];
      if (a == kHole || b == kHole || a != b) return true;
    }
    for (std::size_t c : fd_y[f]) {
      ValueId a = rows[r1][c], b = rows[r2][c];
      if (a != kHole && b != kHole && a != b) return false;
    }
    return true;
  }

  // Validates the FDs that involve column c of row r against all rows.
  bool CellOk(uint32_t r, uint32_t c) const {
    for (uint32_t f : fds_on_col[c]) {
      for (uint32_t r2 = 0; r2 < rows.size(); ++r2) {
        if (r2 != r && !PairOk(f, r, r2)) return false;
      }
    }
    return true;
  }

  bool Dfs(std::size_t hole_idx) {
    if (++nodes > budget) {
      exhausted = true;
      status = Status::ResourceExhausted(
          "solver node budget exhausted after " + std::to_string(nodes) +
          " nodes");
      return false;
    }
    if (governed && (nodes % kCadCheckStride) == 0) {
      Status st = ctx.Check();
      if (!st.ok()) {
        exhausted = true;
        status = std::move(st);
        return false;
      }
    }
    if (hole_idx == holes.size()) return true;
    auto [r, c] = holes[hole_idx];
    for (ValueId v : domains[c]) {
      rows[r][c] = v;
      if (CellOk(r, c) && Dfs(hole_idx + 1)) return true;
      if (exhausted) break;
      rows[r][c] = kHole;
    }
    return false;
  }
};

}  // namespace

CadResult CadConsistent(const Database& db, const std::vector<Fd>& fds,
                        uint64_t node_budget, const ExecContext& ctx) {
  CadResult result;
  if (PSEM_FAILPOINT(failpoints::kCadSearch)) {
    result.decided = false;
    result.status =
        Status::Internal("injected CAD-search fault (psem.cad.search)");
    return result;
  }
  if (!ctx.unbounded()) {
    Status st = ctx.Check();
    if (!st.ok()) {
      result.decided = false;
      result.status = std::move(st);
      return result;
    }
  }
  const std::size_t width = db.universe().size();

  // Representative rows: one per database tuple, holes elsewhere.
  std::vector<std::vector<ValueId>> rows;
  for (std::size_t ri = 0; ri < db.num_relations(); ++ri) {
    const Relation& rel = db.relation(ri);
    for (const Tuple& t : rel.rows()) {
      std::vector<ValueId> row(width, kHole);
      for (std::size_t c = 0; c < rel.arity(); ++c) {
        row[rel.schema().attrs[c]] = t[c];
      }
      rows.push_back(std::move(row));
    }
  }
  // Hole domains: d[A] (CAD forbids inventing symbols).
  std::vector<std::vector<ValueId>> domains(width);
  for (RelAttrId a = 0; a < width; ++a) domains[a] = db.ColumnValues(a);
  // An unfillable hole means inconsistency under CAD.
  if (!rows.empty()) {
    for (RelAttrId a = 0; a < width; ++a) {
      if (domains[a].empty()) {
        bool has_hole = false;
        for (const auto& row : rows) has_hole |= (row[a] == kHole);
        if (has_hole) {
          result.consistent = false;
          return result;
        }
      }
    }
  }

  CadSearch search(fds, width, rows, domains, node_budget, ctx);
  // Initial fixed cells must already be FD-consistent.
  bool initial_ok = true;
  for (uint32_t f = 0; f < fds.size() && initial_ok; ++f) {
    for (uint32_t r1 = 0; r1 < rows.size() && initial_ok; ++r1) {
      for (uint32_t r2 = r1 + 1; r2 < rows.size(); ++r2) {
        if (!search.PairOk(f, r1, r2)) {
          initial_ok = false;
          break;
        }
      }
    }
  }
  bool found = initial_ok && search.Dfs(0);
  result.nodes = search.nodes;
  if (search.exhausted) {
    result.decided = false;
    result.status = std::move(search.status);
    return result;
  }
  result.consistent = found;
  if (found) result.weak_instance = rows;
  return result;
}

Result<CadReduction> ReduceNaeToCad(const NaeFormula& f, Database* db) {
  for (const NaeClause& c : f.clauses) {
    if (c.size() < 2 || c.size() > 3) {
      return Status::InvalidArgument("clauses must have 2 or 3 literals");
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      for (std::size_t j = i + 1; j < c.size(); ++j) {
        if (c[i].var == c[j].var) {
          return Status::InvalidArgument(
              "clause literals must use distinct variables");
        }
      }
    }
  }
  CadReduction red;
  red.padded = f;
  // Padding: for each variable x_i add a fresh mirror g_i with the clauses
  // (x_i OR NOT g_i) and (NOT x_i OR g_i). Under NAE semantics a 2-literal
  // clause requires its literals to differ, so both clauses say g_i = x_i:
  // satisfiability is preserved, and every variable now occurs both
  // positively and negatively — which puts both a_i and b_i into d[B_i],
  // the precondition for the {t1[B_i], t2[B_i]} = {a_i, b_i} argument of
  // Theorem 11's proof.
  uint32_t n0 = f.num_vars;
  for (uint32_t i = 0; i < n0; ++i) {
    uint32_t gi = n0 + i;
    red.padded.clauses.push_back(NaeClause{{i, true}, {gi, false}});
    red.padded.clauses.push_back(NaeClause{{i, false}, {gi, true}});
  }
  red.padded.num_vars = 2 * n0;
  const uint32_t n = red.padded.num_vars;
  const std::size_t m = red.padded.clauses.size();

  Universe& u = db->universe();
  SymbolTable& syms = db->symbols();
  RelAttrId attr_a = u.Intern("A");
  std::vector<RelAttrId> attr_ai(n), attr_bi(n);
  for (uint32_t i = 0; i < n; ++i) {
    attr_ai[i] = u.Intern("A" + std::to_string(i + 1));
    attr_bi[i] = u.Intern("B" + std::to_string(i + 1));
  }

  // R0[A A1 ... An] = { a u1...un, a v1...vn }.
  {
    std::vector<std::string> names{"A"};
    for (uint32_t i = 0; i < n; ++i) names.push_back('A' + std::to_string(i + 1));
    std::size_t r0 = db->AddRelation("R0", names);
    std::vector<std::string> t1{"a"}, t2{"a"};
    for (uint32_t i = 0; i < n; ++i) {
      t1.push_back("u" + std::to_string(i + 1));
      t2.push_back("v" + std::to_string(i + 1));
    }
    db->relation(r0).AddRow(&syms, t1);
    db->relation(r0).AddRow(&syms, t2);
  }

  // One relation per clause. Every clause row carries the same symbol 'b'
  // in the A column (as in Figure 3): the clause FD B_S -> A then forces
  // a = b exactly when all of the clause's literals come out equal.
  for (std::size_t j = 0; j < m; ++j) {
    const NaeClause& clause = red.padded.clauses[j];
    std::vector<bool> in_clause(n, false);
    for (const NaeLiteral& l : clause) in_clause[l.var] = true;

    std::vector<std::string> names{"A"};
    std::vector<std::string> row{"b"};
    for (uint32_t i = 0; i < n; ++i) {
      if (!in_clause[i]) {
        names.push_back('A' + std::to_string(i + 1));
        row.push_back('y' + std::to_string(j + 1) + "_" + std::to_string(i + 1));
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      names.push_back('B' + std::to_string(i + 1));
      if (in_clause[i]) {
        bool positive = false;
        for (const NaeLiteral& l : clause) {
          if (l.var == i) positive = l.positive;
        }
        row.push_back((positive ? "a" : "b") + std::to_string(i + 1));
      } else {
        row.push_back('z' + std::to_string(j + 1) + "_" + std::to_string(i + 1));
      }
    }
    std::size_t rj = db->AddRelation('R' + std::to_string(j + 1), names);
    db->relation(rj).AddRow(&syms, row);
  }

  // FDs: B_i -> A_i and, per clause, {B_i : i in clause} -> A.
  const std::size_t width = u.size();
  for (uint32_t i = 0; i < n; ++i) {
    AttrSet l(width), r(width);
    l.Set(attr_bi[i]);
    r.Set(attr_ai[i]);
    red.fds.push_back(Fd{std::move(l), std::move(r)});
  }
  for (const NaeClause& clause : red.padded.clauses) {
    AttrSet l(width), r(width);
    for (const NaeLiteral& lit : clause) l.Set(attr_bi[lit.var]);
    r.Set(attr_a);
    red.fds.push_back(Fd{std::move(l), std::move(r)});
  }
  return red;
}

Result<std::vector<bool>> DecodeCadAssignment(const Database& db,
                                              const CadReduction& reduction,
                                              const CadResult& result) {
  if (!result.consistent || result.weak_instance.empty()) {
    return Status::FailedPrecondition("no weak instance to decode");
  }
  const uint32_t n = reduction.padded.num_vars;
  std::vector<bool> assignment(n);
  // Row 0 is the first R0 tuple (a, u1...un) — R0 was added first.
  const std::vector<ValueId>& t1 = result.weak_instance[0];
  for (uint32_t i = 0; i < n; ++i) {
    PSEM_ASSIGN_OR_RETURN(RelAttrId bi,
                          db.universe().Require('B' + std::to_string(i + 1)));
    const std::string& sym = db.symbols().NameOf(t1[bi]);
    std::string a_sym = 'a' + std::to_string(i + 1);
    std::string b_sym = 'b' + std::to_string(i + 1);
    if (sym == a_sym) {
      assignment[i] = true;
    } else if (sym == b_sym) {
      assignment[i] = false;
    } else {
      return Status::Internal("unexpected fill value '" + sym + "' for B" +
                              std::to_string(i + 1));
    }
  }
  return assignment;
}

}  // namespace psem
