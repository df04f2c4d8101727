// libFuzzer harness for the snapshot decoder (core/snapshot.h), the
// highest-stakes untrusted-input boundary in the durability subsystem: a
// snapshot is read back after arbitrary on-disk damage, so DecodeSnapshot
// must turn ANY byte string into either a fully validated DecodedSnapshot
// or a clean kDataLoss/kInvalidArgument — never a crash, hang, unbounded
// allocation, or an engine-poisoning half-restore.
//
// Contract checked per input:
//   * DecodeSnapshot returns; errors are only kDataLoss/kInvalidArgument.
//   * On success, the decoded state must be ACCEPTED by a fresh engine's
//     RestoreEngineState (decode validation is at least as strict as the
//     engine's own invariants), and two decodes of the same bytes agree.
//   * ParseJournalBytes on the same input never crashes and never reports
//     a valid prefix longer than the input.
//
// Build: cmake -DPSEM_FUZZ=ON (requires Clang); run:
//   ./build/tests/fuzz/fuzz_snapshot tests/fuzz/corpus/snapshot
//       -max_total_time=60
// Every build also replays the committed corpus once, without libFuzzer
// (ctest -R fuzz_snapshot_corpus; tests/fuzz/replay_main.cc).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/snapshot.h"
#include "lattice/expr.h"
#include "util/durable_file.h"
#include "util/status.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);

  // Tight limits keep the fuzzer fast and exercise the bound checks.
  psem::DurableLimits limits;
  limits.max_file_bytes = 1 << 20;
  limits.max_chunk_bytes = 1 << 18;
  limits.max_chunks = 64;
  limits.max_record_bytes = 1 << 12;

  psem::ExprArena arena;
  auto decoded = psem::DecodeSnapshot(bytes, &arena, limits);
  if (!decoded.ok()) {
    psem::StatusCode code = decoded.status().code();
    if (code != psem::StatusCode::kDataLoss &&
        code != psem::StatusCode::kInvalidArgument) {
      __builtin_trap();
    }
  } else {
    // Decode validation must be at least as strict as the engine: a
    // decoded snapshot always restores into a fresh engine.
    psem::PdImplicationEngine engine(&arena, {});
    psem::Status st = engine.RestoreEngineState(decoded->vertices,
                                                decoded->constraints,
                                                std::move(decoded->state));
    if (!st.ok()) __builtin_trap();

    // Determinism: decoding the same bytes twice agrees.
    psem::ExprArena arena2;
    auto again = psem::DecodeSnapshot(bytes, &arena2, limits);
    if (!again.ok() ||
        again->base_fingerprint != decoded->base_fingerprint ||
        again->vertices.size() != decoded->vertices.size() ||
        again->constraints.size() != decoded->constraints.size()) {
      __builtin_trap();
    }
  }

  // The journal scanner has its own record framing, so the same bytes
  // test it too: it must be just as total, and a valid prefix can never
  // extend past the input.
  auto journal = psem::ParseJournalBytes(bytes, limits);
  if (journal.ok() && journal->valid_bytes > bytes.size()) __builtin_trap();
  return 0;
}
