// Deterministic fault injection (RocksDB-SyncPoint style). A fail point
// is a named site in library code that a test can "arm"; the next N (or
// all) executions of that site then take their failure path, which by
// contract surfaces as a clean non-OK Status with no invariant damage —
// the fault-injection matrix test re-runs the query after disarming and
// checks verdict equality against a cold engine.
//
// Sites are compiled out unless PSEM_FAILPOINTS_ENABLED is defined (the
// PSEM_FAILPOINTS CMake option; ON by default for Debug builds, OFF for
// Release, so production binaries carry zero overhead). The FailPoints
// class itself always exists so tests can compile unconditionally and
// skip at runtime via FailPoints::Enabled().
//
// Usage in library code:
//   if (PSEM_FAILPOINT(failpoints::kAlgSweep)) {
//     return Status::Internal("injected closure-sweep fault");
//   }
//
// Usage in tests:
//   FailPoints::Arm(failpoints::kAlgSweep, /*fire_count=*/1);
//   ... exercise; expect clean Status ...
//   FailPoints::DisarmAll();
//
// Thread-compatibility: Arm/Disarm/Fire are mutex-guarded and may be
// called from any thread; the un-armed fast path is one relaxed atomic
// load.

#ifndef PSEM_UTIL_FAILPOINT_H_
#define PSEM_UTIL_FAILPOINT_H_

#include <cstdint>
#include <vector>

namespace psem {

/// Names of every registered fail-point site, for the matrix test and
/// the docs/robustness.md catalog. Keep in sync with the call sites.
namespace failpoints {
inline constexpr const char* kAlgSeedAlloc = "psem.alg.seed_alloc";
inline constexpr const char* kAlgSweep = "psem.alg.sweep";
inline constexpr const char* kChaseRound = "psem.chase.round";
inline constexpr const char* kRepairRound = "psem.repair.round";
inline constexpr const char* kNaeSearch = "psem.nae.search";
inline constexpr const char* kCadSearch = "psem.cad.search";
// Durable-I/O sites (util/durable_file.cc). Each simulates one physical
// failure mode of the snapshot/journal path so every recovery tier is
// reachable deterministically in tests (docs/robustness.md).
inline constexpr const char* kIoTornWrite = "psem.io.torn_write";
inline constexpr const char* kIoShortRead = "psem.io.short_read";
inline constexpr const char* kIoBitFlip = "psem.io.bit_flip";
inline constexpr const char* kIoFsync = "psem.io.fsync";
inline constexpr const char* kIoRename = "psem.io.rename";
}  // namespace failpoints

/// Global registry of armed fail points.
class FailPoints {
 public:
  /// True iff this build compiles the injection sites in.
  static constexpr bool Enabled() {
#ifdef PSEM_FAILPOINTS_ENABLED
    return true;
#else
    return false;
#endif
  }

  /// Every registered site name (armed or not).
  static std::vector<const char*> Catalog();

#ifdef PSEM_FAILPOINTS_ENABLED
  /// Arms `site`: the next `fire_count` executions fail (-1 = every one).
  static void Arm(const char* site, int fire_count = -1);
  /// Disarms one site / all sites.
  static void Disarm(const char* site);
  static void DisarmAll();
  /// Consults and decrements the site's arm state. Library-internal
  /// (call through PSEM_FAILPOINT); exposed for the facility's own tests.
  static bool Fire(const char* site);
  /// Times `site` has actually fired since the last DisarmAll.
  static uint64_t FireCount(const char* site);
#else
  static void Arm(const char*, int = -1) {}
  static void Disarm(const char*) {}
  static void DisarmAll() {}
  static bool Fire(const char*) { return false; }
  static uint64_t FireCount(const char*) { return 0; }
#endif
};

#ifdef PSEM_FAILPOINTS_ENABLED
#define PSEM_FAILPOINT(site) (::psem::FailPoints::Fire(site))
#else
#define PSEM_FAILPOINT(site) (false)
#endif

}  // namespace psem

#endif  // PSEM_UTIL_FAILPOINT_H_
