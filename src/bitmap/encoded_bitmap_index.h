#ifndef MDW_BITMAP_ENCODED_BITMAP_INDEX_H_
#define MDW_BITMAP_ENCODED_BITMAP_INDEX_H_

#include <cstdint>
#include <vector>

#include "bitmap/bitvector.h"
#include "schema/hierarchy.h"

namespace mdw {

/// An encoded bitmap join index with *hierarchical* encoding (paper
/// Sec. 3.2 and Table 1, after Wu/Buchmann): each fact row's foreign key is
/// encoded into Hierarchy::TotalBits() bits, one bit-slice bitmap per bit
/// position. The encoding concatenates per-level child indices root-first,
/// so all rows below one element at depth d share the same PrefixBits(d)
/// prefix. Selecting an element at depth d therefore evaluates only the
/// prefix bitmaps (10 of 15 for a PRODUCT GROUP); selecting a leaf within a
/// known depth-f fragment evaluates only the suffix bits below f.
///
/// Bit position 0 is the most significant bit of the pattern (the first
/// "d" of "dddllfffggcoooo" in Table 1).
class EncodedBitmapIndex {
 public:
  EncodedBitmapIndex(const Hierarchy& hierarchy,
                     const std::vector<std::int64_t>& fk_column);

  /// Number of bit-slice bitmaps (15 for APB-1 PRODUCT, 12 for CUSTOMER).
  int bitmap_count() const { return bitmap_count_; }
  std::int64_t row_count() const { return row_count_; }

  /// The bit-slice bitmap for bit position `bit` (0 = most significant).
  const BitVector& Bitmap(int bit) const;

  /// The hierarchical bit pattern of `value` at depth `depth`, left-aligned
  /// to PrefixBits(depth) bits.
  std::uint64_t PrefixPattern(Depth depth, std::int64_t value) const;

  /// Rows whose key lies below `value` at depth `depth`: evaluates the
  /// PrefixBits(depth) prefix bitmaps, AND-ing each bitmap or its
  /// complement according to the pattern.
  BitVector Select(Depth depth, std::int64_t value) const;

  /// Like Select, but skips the first `skip_bits` bit positions. Used when
  /// a fragmentation already confines processing to rows that share the
  /// prefix (the fragmentation attribute's pattern): only the bits between
  /// the fragmentation level and the query level must be evaluated.
  /// Bits [skip_bits, PrefixBits(depth)) are read.
  BitVector SelectWithinPrefix(Depth depth, std::int64_t value,
                               int skip_bits) const;

  /// Number of bitmaps SelectWithinPrefix touches.
  int BitmapsRead(Depth depth, int skip_bits) const;

  /// Range-restricted SelectWithinPrefix into the caller's words: ANDs
  /// the selection's bit for row begin + i into bit i % 64 of out[i / 64],
  /// over the CeilDiv(end - begin, 64) words that rows [begin, end) span.
  /// The last word's bits past end - begin are ANDed with the rows that
  /// follow `end` (zero past the table), so callers mask them. Reads the
  /// same bit-slices as SelectWithinPrefix, over the range only:
  /// fragment-confined execution pays O(block) per slice, not O(table).
  void AndSelectionInto(Depth depth, std::int64_t value, int skip_bits,
                        std::int64_t begin, std::int64_t end,
                        std::uint64_t* out) const;

 private:
  const Hierarchy& hierarchy_;
  std::int64_t row_count_;
  int bitmap_count_;
  std::vector<BitVector> slices_;  ///< slices_[bit], bit 0 = MSB
};

}  // namespace mdw

#endif  // MDW_BITMAP_ENCODED_BITMAP_INDEX_H_
