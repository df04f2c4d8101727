// libFuzzer harness for the expression/PD parser — the primary untrusted
// boundary. The contract under fuzzing: any byte sequence either parses
// or comes back as a clean kInvalidArgument Status; no crash, no hang,
// no depth blowout (kMaxParseDepth guards the recursive descent). A
// successfully parsed expression must survive a print/re-parse round
// trip to the same hash-consed node. A parsed PD also goes through the
// whole-tree walks a parenthesis-free chain makes as tall as the input
// is long: the dual is an involution, the attribute walk runs, and the
// implication engine interns V (no closure) with one vertex per distinct
// subexpression.
//
// Build: cmake -DPSEM_FUZZ=ON (requires Clang); run:
//   ./build/tests/fuzz/fuzz_expr_parser tests/fuzz/corpus/expr -max_total_time=60

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>

#include "core/implication.h"
#include "lattice/expr.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string input(reinterpret_cast<const char*>(data), size);
  psem::ExprArena arena;

  auto e = arena.Parse(input);
  if (e.ok()) {
    // Round trip: printing a parsed expression and re-parsing it must
    // yield the identical hash-consed id.
    std::string printed = arena.ToString(*e);
    auto back = arena.Parse(printed);
    if (!back.ok() || *back != *e) __builtin_trap();
  }

  auto pd = arena.ParsePd(input);
  if (pd.ok()) {
    std::string printed = arena.ToString(*pd);
    auto back = arena.ParsePd(printed);
    if (!back.ok()) __builtin_trap();

    for (psem::ExprId side : {pd->lhs, pd->rhs}) {
      if (psem::DualExpr(&arena, psem::DualExpr(&arena, side)) != side) {
        __builtin_trap();
      }
    }
    std::set<psem::AttrId> attrs;
    arena.CollectAttrs(pd->lhs, &attrs);
    arena.CollectAttrs(pd->rhs, &attrs);
    if (attrs.empty()) __builtin_trap();
    psem::PdImplicationEngine engine(&arena, {*pd});
    if (engine.vertices().size() !=
        arena.PostOrder(std::array{pd->lhs, pd->rhs}).size()) {
      __builtin_trap();
    }
  }
  return 0;
}
