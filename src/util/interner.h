// StringInterner: bidirectional string <-> dense id mapping. Attribute
// names (the universe of Section 2.1) and data symbols (the set D) are
// interned once so the rest of the library works with dense 32-bit ids.
// FlatIdIndex is its hash index, shared with Relation's row index.

#ifndef PSEM_UTIL_INTERNER_H_
#define PSEM_UTIL_INTERNER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace psem {

/// Finalizer of MurmurHash3: spreads every input bit over the low bits, so
/// a power-of-two table can index with `hash & mask`.
inline uint64_t MixHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// MixHash of two 32-bit ids and a small tag (a kind, a flag) in one word.
inline uint64_t MixHash(uint32_t a, uint32_t b, uint64_t tag) {
  return MixHash((uint64_t{a} << 32 | b) ^ tag * 0x9e3779b97f4a7c15ull);
}

/// A hash index over dense ids 0..n-1 whose keys live in the owner (the
/// strings of a StringInterner, the rows of a Relation). An open-addressing
/// table of `id + 1` slots (0 = empty): power-of-two size, linear probing,
/// at most half full. Hashes must be MixHash-finished, since the low bits
/// pick the slot; `is_key(id)` tells whether id's key is the one sought.
class FlatIdIndex {
 public:
  /// The slot for the key `is_key` accepts: it holds that key's id + 1,
  /// or it is the empty slot where the key belongs. Call MakeRoom first.
  template <typename IsKey>
  uint32_t& Slot(uint64_t hash, IsKey is_key) {
    return slots_[Probe(hash, is_key)];
  }

  /// The id + 1 of the key `is_key` accepts, or 0 if it is absent.
  template <typename IsKey>
  uint32_t Find(uint64_t hash, IsKey is_key) const {
    return slots_.empty() ? 0 : slots_[Probe(hash, is_key)];
  }

  /// Makes room for one more id beyond the `size` ids already indexed,
  /// rehashing them with `hash_of(id)` when the table doubles.
  template <typename HashOf>
  void MakeRoom(std::size_t size, HashOf hash_of) {
    if (2 * (size + 1) <= slots_.size()) return;
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    const std::size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < size; ++id) {
      std::size_t i = hash_of(id) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id + 1;
    }
  }

 private:
  template <typename IsKey>
  std::size_t Probe(uint64_t hash, IsKey is_key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0 && !is_key(slots_[i] - 1)) i = (i + 1) & mask;
    return i;
  }

  std::vector<uint32_t> slots_;
};

/// Interns strings into dense ids 0..size()-1, preserving insertion order.
/// The index is a FlatIdIndex over `strings_`, so Intern and Lookup build
/// no std::string (Intern copies `s` once, when it is new).
class StringInterner {
 public:
  /// Returns the id for `s`, interning it if new.
  uint32_t Intern(std::string_view s) {
    index_.MakeRoom(strings_.size(),
                    [this](uint32_t id) { return Hash(strings_[id]); });
    uint32_t& slot = index_.Slot(
        Hash(s), [&](uint32_t id) { return strings_[id] == s; });
    if (slot == 0) {
      strings_.emplace_back(s);
      slot = static_cast<uint32_t>(strings_.size());
    }
    return slot - 1;
  }

  /// Returns the id for `s` if already interned.
  std::optional<uint32_t> Lookup(std::string_view s) const {
    uint32_t slot = index_.Find(
        Hash(s), [&](uint32_t id) { return strings_[id] == s; });
    if (slot == 0) return std::nullopt;
    return slot - 1;
  }

  /// The string for an id. Precondition: id < size().
  const std::string& NameOf(uint32_t id) const { return strings_[id]; }

  std::size_t size() const { return strings_.size(); }

 private:
  static uint64_t Hash(std::string_view s) {
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over every byte
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    return MixHash(h);
  }

  std::vector<std::string> strings_;
  FlatIdIndex index_;
};

}  // namespace psem

#endif  // PSEM_UTIL_INTERNER_H_
