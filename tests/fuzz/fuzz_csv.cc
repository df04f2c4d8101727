// libFuzzer harness for the CSV reader. Contract: arbitrary bytes either
// load into a fresh relation or return a clean kInvalidArgument Status;
// the database is never left half-mutated (all-or-nothing), and a
// successful load must survive a dump/re-load round trip: the same header
// names and the same rows in the same order, compared by symbol name.
//
// Build: cmake -DPSEM_FUZZ=ON (requires Clang); run:
//   ./build/tests/fuzz/fuzz_csv tests/fuzz/corpus/csv -max_total_time=60

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/csv.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string input(reinterpret_cast<const char*>(data), size);
  psem::Database db;

  auto r = psem::LoadCsvRelation(input, &db, "fuzz");
  if (!r.ok()) {
    // All-or-nothing: a failed load leaves the database untouched.
    if (db.num_relations() != 0) __builtin_trap();
    return 0;
  }

  const psem::Relation& rel = db.relation(*r);
  std::string dumped = psem::DumpCsvRelation(db, rel);
  psem::Database db2;
  auto r2 = psem::LoadCsvRelation(dumped, &db2, "fuzz");
  if (!r2.ok()) __builtin_trap();
  const psem::Relation& rel2 = db2.relation(*r2);
  if (rel2.arity() != rel.arity() || rel2.size() != rel.size()) {
    __builtin_trap();
  }
  for (std::size_t c = 0; c < rel.arity(); ++c) {
    if (db.universe().NameOf(rel.schema().attrs[c]) !=
        db2.universe().NameOf(rel2.schema().attrs[c])) {
      __builtin_trap();
    }
  }
  for (std::size_t i = 0; i < rel.size(); ++i) {
    for (std::size_t c = 0; c < rel.arity(); ++c) {
      if (db.symbols().NameOf(rel.rows()[i][c]) !=
          db2.symbols().NameOf(rel2.rows()[i][c])) {
        __builtin_trap();
      }
    }
  }
  return 0;
}
