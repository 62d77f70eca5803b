#ifndef MDW_BITMAP_INDEX_SET_H_
#define MDW_BITMAP_INDEX_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bitmap/encoded_bitmap_index.h"
#include "bitmap/simple_bitmap_index.h"
#include "schema/star_schema.h"

namespace mdw {

/// The fact table's foreign-key columns: `columns[dim][row]` is the leaf
/// value of dimension `dim` referenced by fact row `row`. This is the
/// materialised representation used by the functional (in-memory) path on
/// scaled-down schemas.
struct FactColumns {
  std::vector<std::vector<std::int64_t>> columns;

  std::int64_t row_count() const {
    return columns.empty() ? 0
                           : static_cast<std::int64_t>(columns[0].size());
  }
};

/// All bitmap join indices of a star schema: one simple or encoded index
/// per dimension, following the dimension's IndexKind. This is the
/// functional counterpart of the index configuration the paper assumes
/// (encoded on PRODUCT/CUSTOMER, simple on TIME/CHANNEL; 76 bitmaps total
/// at APB-1 scale).
class IndexSet {
 public:
  IndexSet(const StarSchema& schema, const FactColumns& facts);

  /// Rows matching value@depth on dimension `dim` (reads the index).
  BitVector Select(DimId dim, Depth depth, std::int64_t value) const;

  /// Range-restricted Select into the caller's words: ANDs the bit of
  /// row begin + i, matching value@depth on dimension `dim`, into bit
  /// i % 64 of out[i / 64], over the CeilDiv(end - begin, 64) words that
  /// rows [begin, end) span; the last word's bits past end - begin are
  /// ANDed with the rows that follow `end` (zero past the table), so
  /// callers mask them. `fragment_depth` >= 0 says processing is already
  /// confined to rows sharing the dimension's prefix down to that depth,
  /// so an encoded index reads only the suffix bits below it; -1 reads
  /// the whole prefix. A simple index reads its one bitmap either way.
  /// This is how fragment-confined execution evaluates predicates one
  /// block of a fragment's rows at a time instead of over full-width
  /// bitmaps.
  void AndSelectionInto(DimId dim, Depth depth, std::int64_t value,
                        Depth fragment_depth, std::int64_t begin,
                        std::int64_t end, std::uint64_t* out) const;

  /// Total bitmaps across all indices (76 for paper APB-1).
  int TotalBitmapCount() const;

  const SimpleBitmapIndex* simple_index(DimId dim) const;
  const EncodedBitmapIndex* encoded_index(DimId dim) const;

 private:
  const StarSchema& schema_;
  std::vector<std::unique_ptr<SimpleBitmapIndex>> simple_;
  std::vector<std::unique_ptr<EncodedBitmapIndex>> encoded_;
};

}  // namespace mdw

#endif  // MDW_BITMAP_INDEX_SET_H_
