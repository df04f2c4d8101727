// DynamicBitset: a fixed-universe bitset sized at runtime. Used for
// attribute sets (Section 2.1) and for the arc matrices of Algorithm ALG
// (Section 5.2), where bit-parallel row operations give the O(n^4)
// closure a small constant factor.

#ifndef PSEM_UTIL_BITSET_H_
#define PSEM_UTIL_BITSET_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace psem {

/// A bitset over {0, ..., n-1} with word-parallel set operations.
class DynamicBitset {
 public:
  DynamicBitset() : num_bits_(0) {}

  /// All bits initially clear.
  explicit DynamicBitset(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  std::size_t size() const { return num_bits_; }

  void Set(std::size_t i) {
    assert(i < num_bits_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }

  void Reset(std::size_t i) {
    assert(i < num_bits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  bool Test(std::size_t i) const {
    assert(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Clear() {
    for (auto& w : words_) w = 0;
  }

  /// Changes the universe to {0, ..., new_bits-1}. Growing preserves all
  /// bits (new positions start clear); shrinking drops the tail. Used by
  /// the incremental ALG closure when V gains vertices.
  void Resize(std::size_t new_bits) {
    num_bits_ = new_bits;
    words_.resize((new_bits + 63) / 64, 0);
    TrimTail();
  }

  void SetAll() {
    for (auto& w : words_) w = ~uint64_t{0};
    TrimTail();
  }

  /// Number of set bits.
  std::size_t Count() const {
    std::size_t c = 0;
    for (uint64_t w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  bool Any() const {
    for (uint64_t w : words_)
      if (w) return true;
    return false;
  }

  bool None() const { return !Any(); }

  /// In-place union; returns true iff this changed. Sizes must match.
  bool UnionWith(const DynamicBitset& other) {
    assert(num_bits_ == other.num_bits_);
    bool changed = false;
    for (std::size_t k = 0; k < words_.size(); ++k) {
      uint64_t before = words_[k];
      words_[k] |= other.words_[k];
      changed |= (words_[k] != before);
    }
    return changed;
  }

  /// In-place union that also reports what changed: returns the number of
  /// bits newly set, and (when `newly` is non-null) ORs exactly those bits
  /// into *newly. One scan — OR plus popcount of the difference — that
  /// reads every word of `other` but writes only where it adds bits. This
  /// is the kernel behind the semi-naive ALG closure's exact running arc
  /// counter.
  std::size_t OrInPlaceCountNew(const DynamicBitset& other,
                                DynamicBitset* newly = nullptr) {
    return OrInPlaceCountNew(other, 0, words_.size(), newly, nullptr);
  }

  /// OrInPlaceCountNew over backing words [first_word, end_word) only. The
  /// caller promises `other` is empty outside that span, so the cost is
  /// proportional to other's occupied word span rather than the universe
  /// size. Each newly set bit also goes into *newly_too when that is
  /// non-null; a *newly_too of width 0 is materialized at this width (all
  /// clear) on the first newly set bit, so a caller that tracks the new
  /// bits of a row only when there are some allocates nothing otherwise.
  std::size_t OrInPlaceCountNew(const DynamicBitset& other,
                                std::size_t first_word, std::size_t end_word,
                                DynamicBitset* newly,
                                DynamicBitset* newly_too = nullptr) {
    assert(num_bits_ == other.num_bits_);
    assert(newly == nullptr || newly->num_bits_ == num_bits_);
    assert(newly_too == nullptr || newly_too->num_bits_ == num_bits_ ||
           newly_too->words_.empty());
    assert(first_word <= end_word && end_word <= words_.size());
    std::size_t added = 0;
    for (std::size_t k = first_word; k < end_word; ++k) {
      uint64_t ow = other.words_[k];
      if (!ow) continue;
      uint64_t fresh = ow & ~words_[k];
      if (!fresh) continue;
      words_[k] |= fresh;
      added += static_cast<std::size_t>(__builtin_popcountll(fresh));
      if (newly) newly->words_[k] |= fresh;
      if (newly_too) {
        if (newly_too->words_.empty()) *newly_too = DynamicBitset(num_bits_);
        newly_too->words_[k] |= fresh;
      }
    }
    return added;
  }

  /// In-place union with (a AND b), counting and recording newly set bits
  /// exactly like OrInPlaceCountNew.
  std::size_t OrAndInPlaceCountNew(const DynamicBitset& a,
                                   const DynamicBitset& b,
                                   DynamicBitset* newly = nullptr) {
    return OrAndInPlaceCountNew(a, b, 0, words_.size(), newly);
  }

  /// OrAndInPlaceCountNew over backing words [first_word, end_word) only;
  /// (a AND b) must be empty outside that span.
  std::size_t OrAndInPlaceCountNew(const DynamicBitset& a,
                                   const DynamicBitset& b,
                                   std::size_t first_word, std::size_t end_word,
                                   DynamicBitset* newly = nullptr) {
    assert(num_bits_ == a.num_bits_ && num_bits_ == b.num_bits_);
    assert(newly == nullptr || newly->num_bits_ == num_bits_);
    assert(first_word <= end_word && end_word <= words_.size());
    std::size_t added = 0;
    for (std::size_t k = first_word; k < end_word; ++k) {
      uint64_t ow = a.words_[k] & b.words_[k];
      if (!ow) continue;
      uint64_t fresh = ow & ~words_[k];
      if (!fresh) continue;
      words_[k] |= fresh;
      added += static_cast<std::size_t>(__builtin_popcountll(fresh));
      if (newly) newly->words_[k] |= fresh;
    }
    return added;
  }

  /// In-place union with no change tracking: a straight-line word loop
  /// the compiler vectorizes to pure ORs. The accumulator kernel of the
  /// blocked dense closure sweep, where OrInPlaceCountNew's branchy
  /// skip-and-popcount scan would dominate (counting there happens once
  /// per destination row, on the merged accumulator).
  void OrWith(const DynamicBitset& other) {
    assert(num_bits_ == other.num_bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] |= other.words_[k];
  }

  /// The occupied backing-word span: the smallest [first, end) range of
  /// words holding every set bit, or {0, 0} when none is set.
  std::pair<std::size_t, std::size_t> WordSpan() const {
    std::size_t first = 0, end = words_.size();
    while (end > 0 && words_[end - 1] == 0) --end;
    while (first < end && words_[first] == 0) ++first;
    return {first, end};
  }

  // Word-span iteration: the 64-bit backing words, for kernels (like the
  // blocked dense closure sweep) that want to walk set bits a word at a
  // time instead of via NextSetBit.
  std::size_t num_words() const { return words_.size(); }
  uint64_t word(std::size_t k) const {
    assert(k < words_.size());
    return words_[k];
  }

  /// Overwrites backing word k. Bits beyond size() are masked off, so a
  /// deserializer cannot smuggle stray tail bits into Count()/Any().
  /// Returns false (leaving the word unchanged) iff the input had such
  /// bits — callers on untrusted boundaries treat that as corruption.
  bool set_word(std::size_t k, uint64_t w) {
    assert(k < words_.size());
    if (k + 1 == words_.size()) {
      std::size_t tail = num_bits_ & 63;
      if (tail != 0 && (w & ~((uint64_t{1} << tail) - 1)) != 0) return false;
    }
    words_[k] = w;
    return true;
  }

  /// In-place intersection.
  void IntersectWith(const DynamicBitset& other) {
    assert(num_bits_ == other.num_bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] &= other.words_[k];
  }

  /// In-place difference (this \ other).
  void SubtractWith(const DynamicBitset& other) {
    assert(num_bits_ == other.num_bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] &= ~other.words_[k];
  }

  /// True iff this is a subset of other.
  bool IsSubsetOf(const DynamicBitset& other) const {
    assert(num_bits_ == other.num_bits_);
    for (std::size_t k = 0; k < words_.size(); ++k)
      if (words_[k] & ~other.words_[k]) return false;
    return true;
  }

  bool operator==(const DynamicBitset& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  /// Index of the first set bit at or after `from`, or size() if none.
  std::size_t NextSetBit(std::size_t from) const {
    if (from >= num_bits_) return num_bits_;
    std::size_t word = from >> 6;
    uint64_t w = words_[word] & (~uint64_t{0} << (from & 63));
    while (true) {
      if (w) {
        std::size_t bit = (word << 6) +
                          static_cast<std::size_t>(__builtin_ctzll(w));
        return bit < num_bits_ ? bit : num_bits_;
      }
      if (++word >= words_.size()) return num_bits_;
      w = words_[word];
    }
  }

  /// Calls fn(i) for every set bit i in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = NextSetBit(0); i < num_bits_; i = NextSetBit(i + 1)) {
      fn(i);
    }
  }

  /// Blocked bit-matrix transpose: for every bit j of rows[i], sets bit i
  /// of (*cols)[j]. rows.size() must equal each column's width and
  /// cols->size() each row's width; a row of width 0 counts as all-zero
  /// (so a sparse set of materialized rows needs no padding). The matrix
  /// is walked in 64x64 tiles: 64 words are gathered, transposed in
  /// registers, and ORed back as 64 words, so the cost is about n*n/64
  /// word operations instead of one random Set per bit, and all-zero
  /// tiles cost only the gather.
  static void OrTransposeInto(const std::vector<DynamicBitset>& rows,
                              std::vector<DynamicBitset>* cols) {
    const std::size_t num_rows = rows.size();
    const std::size_t num_cols = cols->size();
    uint64_t tile[64];
    for (std::size_t r0 = 0; r0 < num_rows; r0 += 64) {
      const std::size_t rn = std::min<std::size_t>(64, num_rows - r0);
      for (std::size_t c0 = 0; c0 < num_cols; c0 += 64) {
        const std::size_t cw = c0 >> 6;
        uint64_t any = 0;
        for (std::size_t t = 0; t < 64; ++t) {
          uint64_t w = 0;
          if (t < rn) {
            const DynamicBitset& row = rows[r0 + t];
            assert(row.words_.empty() || row.num_bits_ == num_cols);
            if (!row.words_.empty()) w = row.words_[cw];
          }
          tile[t] = w;
          any |= w;
        }
        if (!any) continue;
        Transpose64(tile);
        const std::size_t cn = std::min<std::size_t>(64, num_cols - c0);
        for (std::size_t t = 0; t < cn; ++t) {
          DynamicBitset& col = (*cols)[c0 + t];
          assert(col.num_bits_ == num_rows);
          col.words_[r0 >> 6] |= tile[t];
        }
      }
    }
  }

  /// Hash suitable for unordered containers.
  std::size_t Hash() const {
    std::size_t h = 0xcbf29ce484222325ull;
    for (uint64_t w : words_) {
      h ^= static_cast<std::size_t>(w);
      h *= 0x100000001b3ull;
    }
    return h;
  }

 private:
  // In-register transpose of a 64x64 bit tile (bit c of a[r] <-> bit r of
  // a[c]): six rounds, each swapping the off-diagonal j x j sub-blocks of
  // every 2j x 2j block (Hacker's Delight, 7-3).
  static void Transpose64(uint64_t a[64]) {
    uint64_t mask = 0x00000000FFFFFFFFull;
    for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
      for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
        const uint64_t t = ((a[k] >> j) ^ a[k | j]) & mask;
        a[k] ^= t << j;
        a[k | j] ^= t;
      }
    }
  }

  void TrimTail() {
    std::size_t tail = num_bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }

  std::size_t num_bits_;
  std::vector<uint64_t> words_;
};

}  // namespace psem

#endif  // PSEM_UTIL_BITSET_H_
