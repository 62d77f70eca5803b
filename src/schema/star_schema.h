#ifndef MDW_SCHEMA_STAR_SCHEMA_H_
#define MDW_SCHEMA_STAR_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "schema/dimension.h"

namespace mdw {

/// Index of a dimension within a StarSchema.
using DimId = int;

/// Physical layout constants of the modelled system (paper Table 4).
struct PhysicalParams {
  std::int64_t page_size_bytes = 4 * 1024;  ///< 4 KB pages
  std::int64_t fact_tuple_bytes = 20;       ///< paper Sec. 4.4: 20 B tuples

  /// Fact tuples that fit one page: floor(4096/20) = 204. This choice
  /// reproduces the paper's "about 200 tuples per page" and its Table 3.
  std::int64_t TuplesPerPage() const {
    return page_size_bytes / fact_tuple_bytes;
  }
};

/// A star schema: one fact table plus hierarchical dimensions. The fact
/// table cardinality follows APB-1: a density factor applied to the product
/// of the dimensions' leaf cardinalities.
class StarSchema {
 public:
  StarSchema(std::string fact_table_name, std::vector<Dimension> dimensions,
             double density, PhysicalParams physical = {});

  const std::string& fact_table_name() const { return fact_table_name_; }
  int num_dimensions() const { return static_cast<int>(dimensions_.size()); }
  const Dimension& dimension(DimId id) const;
  const std::vector<Dimension>& dimensions() const { return dimensions_; }
  double density() const { return density_; }
  const PhysicalParams& physical() const { return physical_; }

  /// DimId of the dimension named `name`, or -1.
  DimId DimensionIdOf(std::string_view name) const;

  /// Product of the leaf cardinalities (maximal number of fact rows).
  std::int64_t MaxFactCount() const;

  /// Actual fact table cardinality N = density * MaxFactCount().
  std::int64_t FactCount() const;

  /// Pages of the fact table: ceil(N / TuplesPerPage()).
  std::int64_t FactPages() const;

  /// Size of one (unfragmented) bitmap in bytes: one bit per fact row.
  std::int64_t BitmapBytes() const;

  /// Total bitmaps over all dimension indices without fragmentation-based
  /// elimination (76 for the APB-1 configuration of the paper).
  int TotalBitmapCount() const;

 private:
  std::string fact_table_name_;
  std::vector<Dimension> dimensions_;
  double density_;
  PhysicalParams physical_;
};

}  // namespace mdw

#endif  // MDW_SCHEMA_STAR_SCHEMA_H_
