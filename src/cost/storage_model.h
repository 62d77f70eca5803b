#ifndef MDW_COST_STORAGE_MODEL_H_
#define MDW_COST_STORAGE_MODEL_H_

#include <cstdint>
#include <vector>

#include "fragment/fragmentation.h"

namespace mdw {

/// Storage footprint of one dimension's bitmap index under a
/// fragmentation (after elimination), raw and WAH-compressed.
struct DimensionStorage {
  DimId dim = -1;
  int bitmaps = 0;                        ///< remaining after elimination
  std::int64_t raw_bytes = 0;             ///< bitmaps * N/8
  std::int64_t compressed_bytes = 0;      ///< WAH estimate
};

/// Storage breakdown of the whole physical design (paper Sec. 4.4: each
/// bitmap occupies 223 MB at APB-1 scale, so the bitmap choice dominates
/// everything but the fact table itself).
struct StorageBreakdown {
  std::int64_t fact_bytes = 0;
  int bitmap_count = 0;
  std::int64_t bitmap_raw_bytes = 0;
  std::int64_t bitmap_compressed_bytes = 0;
  std::vector<DimensionStorage> per_dimension;

  std::int64_t TotalRaw() const { return fact_bytes + bitmap_raw_bytes; }
};

/// Expected WAH-compressed size of one bitmap with `set_bits` uniformly
/// distributed over `total_bits` rows. Sparse bitmaps cost ~8 bytes per
/// isolated set bit (literal + fill pair); dense bitmaps converge to the
/// raw size times 32/31.
std::int64_t EstimateWahBytes(std::int64_t total_bits, double set_bits);

/// Storage of the fact table plus all *remaining* bitmaps (elimination
/// per Sec. 4.2 applied) under `fragmentation`. Encoded bit slices have
/// ~50 % density and are treated as incompressible; simple per-value
/// bitmaps have density 1/cardinality and compress dramatically.
StorageBreakdown EstimateStorage(const Fragmentation& fragmentation);

}  // namespace mdw

#endif  // MDW_COST_STORAGE_MODEL_H_
