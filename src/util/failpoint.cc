#include "util/failpoint.h"

#ifdef PSEM_FAILPOINTS_ENABLED
#include <atomic>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#endif

namespace psem {

std::vector<const char*> FailPoints::Catalog() {
  return {failpoints::kAlgSeedAlloc, failpoints::kAlgSweep,
          failpoints::kChaseRound,   failpoints::kRepairRound,
          failpoints::kNaeSearch,    failpoints::kCadSearch,
          failpoints::kIoTornWrite,  failpoints::kIoShortRead,
          failpoints::kIoBitFlip,    failpoints::kIoFsync,
          failpoints::kIoRename};
}

#ifdef PSEM_FAILPOINTS_ENABLED

namespace {

struct SiteState {
  int remaining = 0;  // -1 = fire every time
  uint64_t fired = 0;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, SiteState> sites;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // leaked: safe at any exit order
  return *r;
}

// Fast path: skip the lock entirely while nothing is armed.
std::atomic<int>& ArmedCount() {
  static std::atomic<int> count{0};
  return count;
}

}  // namespace

void FailPoints::Arm(const char* site, int fire_count) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto [it, inserted] = r.sites.try_emplace(site);
  if (inserted) ArmedCount().fetch_add(1, std::memory_order_relaxed);
  it->second.remaining = fire_count;
}

void FailPoints::Disarm(const char* site) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.sites.erase(site) > 0) {
    ArmedCount().fetch_sub(1, std::memory_order_relaxed);
  }
}

void FailPoints::DisarmAll() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  ArmedCount().fetch_sub(static_cast<int>(r.sites.size()),
                         std::memory_order_relaxed);
  r.sites.clear();
}

bool FailPoints::Fire(const char* site) {
  if (ArmedCount().load(std::memory_order_relaxed) == 0) return false;
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(site);
  if (it == r.sites.end()) return false;
  SiteState& s = it->second;
  if (s.remaining == 0) return false;
  if (s.remaining > 0) --s.remaining;
  ++s.fired;
  return true;
}

uint64_t FailPoints::FireCount(const char* site) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(site);
  return it == r.sites.end() ? 0 : it->second.fired;
}

#endif  // PSEM_FAILPOINTS_ENABLED

}  // namespace psem
