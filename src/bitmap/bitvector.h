#ifndef MDW_BITMAP_BITVECTOR_H_
#define MDW_BITMAP_BITVECTOR_H_

#include <cstdint>
#include <vector>

namespace mdw {

/// A packed, fixed-length vector of bits with the Boolean operations the
/// star-query processor needs (AND, OR, NOT, AND-NOT), population count and
/// set-bit iteration. One BitVector is one bitmap (or one bitmap fragment)
/// of a bitmap join index: bit r corresponds to fact row r.
class BitVector {
 public:
  BitVector() = default;
  /// All-zero vector of `size_bits` bits.
  explicit BitVector(std::int64_t size_bits);

  std::int64_t size() const { return size_bits_; }
  /// Storage footprint in bytes (whole words).
  std::int64_t SizeBytes() const {
    return static_cast<std::int64_t>(words_.size()) * 8;
  }

  void Set(std::int64_t bit);
  void Clear(std::int64_t bit);
  bool Get(std::int64_t bit) const;

  /// Sets every bit (used to seed an AND-reduction).
  void SetAll();
  /// Clears every bit.
  void ClearAll();

  /// In-place Boolean operations; operands must have equal size.
  BitVector& operator&=(const BitVector& other);
  BitVector& operator|=(const BitVector& other);
  /// this &= ~other
  BitVector& AndNot(const BitVector& other);
  /// Flips every bit (trailing bits beyond size stay zero).
  void FlipAll();

  /// ---- Word windows ----
  /// ANDs the `n_words` * 64 bits starting at bit `begin` into
  /// out[0 .. n_words): bit j of out[i] is ANDed with bit
  /// begin + 64 * i + j, or with its complement when `complement` is set
  /// (the AND-NOT form). Bits past size() read as zero, so their
  /// complement reads as one. This is how fragment-confined execution
  /// evaluates a bit-slice over one block of a fragment's rows, O(block)
  /// and without copying the bitmap.
  void AndWindowInto(std::int64_t begin, std::int64_t n_words,
                     bool complement, std::uint64_t* out) const;

  /// Number of set bits.
  std::int64_t Count() const;
  /// True iff no bit is set.
  bool None() const;

  /// Index of the first set bit at or after `from`, or -1.
  std::int64_t NextSetBit(std::int64_t from) const;

  /// Invokes `fn(row)` for every set bit in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int tz = __builtin_ctzll(word);
        fn(static_cast<std::int64_t>(w) * 64 + tz);
        word &= word - 1;
      }
    }
  }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.size_bits_ == b.size_bits_ && a.words_ == b.words_;
  }

 private:
  void MaskTail();

  std::int64_t size_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Binary Boolean helpers (by-value result).
BitVector operator&(BitVector a, const BitVector& b);
BitVector operator|(BitVector a, const BitVector& b);

}  // namespace mdw

#endif  // MDW_BITMAP_BITVECTOR_H_
