#include "schema/star_schema.h"

#include "common/check.h"
#include "common/math_util.h"

namespace mdw {

StarSchema::StarSchema(std::string fact_table_name,
                       std::vector<Dimension> dimensions, double density,
                       PhysicalParams physical)
    : fact_table_name_(std::move(fact_table_name)),
      dimensions_(std::move(dimensions)),
      density_(density),
      physical_(physical) {
  MDW_CHECK(!dimensions_.empty(), "star schema needs at least one dimension");
  MDW_CHECK(density_ > 0.0 && density_ <= 1.0, "density must be in (0, 1]");
}

const Dimension& StarSchema::dimension(DimId id) const {
  MDW_CHECK(id >= 0 && id < num_dimensions(), "dimension id out of range");
  return dimensions_[static_cast<std::size_t>(id)];
}

DimId StarSchema::DimensionIdOf(std::string_view name) const {
  for (DimId id = 0; id < num_dimensions(); ++id) {
    if (dimensions_[static_cast<std::size_t>(id)].name() == name) return id;
  }
  return -1;
}

std::int64_t StarSchema::MaxFactCount() const {
  std::int64_t product = 1;
  for (const auto& dim : dimensions_) {
    product *= dim.hierarchy().LeafCardinality();
  }
  return product;
}

std::int64_t StarSchema::FactCount() const {
  return static_cast<std::int64_t>(density_ *
                                   static_cast<double>(MaxFactCount()));
}

std::int64_t StarSchema::FactPages() const {
  return CeilDiv(FactCount(), physical_.TuplesPerPage());
}

std::int64_t StarSchema::BitmapBytes() const {
  return CeilDiv(FactCount(), 8);
}

int StarSchema::TotalBitmapCount() const {
  int total = 0;
  for (const auto& dim : dimensions_) total += dim.TotalBitmapCount();
  return total;
}

}  // namespace mdw
