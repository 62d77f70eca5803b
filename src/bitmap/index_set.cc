#include "bitmap/index_set.h"

#include "common/check.h"

namespace mdw {

IndexSet::IndexSet(const StarSchema& schema, const FactColumns& facts)
    : schema_(schema) {
  MDW_CHECK(static_cast<int>(facts.columns.size()) == schema.num_dimensions(),
            "one foreign-key column per dimension required");
  simple_.resize(static_cast<std::size_t>(schema.num_dimensions()));
  encoded_.resize(static_cast<std::size_t>(schema.num_dimensions()));
  for (DimId dim = 0; dim < schema.num_dimensions(); ++dim) {
    const auto& d = schema.dimension(dim);
    const auto& column = facts.columns[static_cast<std::size_t>(dim)];
    if (d.index_kind() == IndexKind::kEncoded) {
      encoded_[static_cast<std::size_t>(dim)] =
          std::make_unique<EncodedBitmapIndex>(d.hierarchy(), column);
    } else {
      simple_[static_cast<std::size_t>(dim)] =
          std::make_unique<SimpleBitmapIndex>(d.hierarchy(), column);
    }
  }
}

BitVector IndexSet::Select(DimId dim, Depth depth, std::int64_t value) const {
  const auto& d = schema_.dimension(dim);
  if (d.index_kind() == IndexKind::kEncoded) {
    return encoded_[static_cast<std::size_t>(dim)]->Select(depth, value);
  }
  return simple_[static_cast<std::size_t>(dim)]->Select(depth, value);
}

BitVector IndexSet::SelectSlice(DimId dim, Depth depth, std::int64_t value,
                                std::int64_t begin, std::int64_t end) const {
  const auto& d = schema_.dimension(dim);
  if (d.index_kind() == IndexKind::kEncoded) {
    return encoded_[static_cast<std::size_t>(dim)]->SelectWithinPrefixSlice(
        depth, value, /*skip_bits=*/0, begin, end);
  }
  return simple_[static_cast<std::size_t>(dim)]->SelectSlice(depth, value,
                                                             begin, end);
}

BitVector IndexSet::SelectWithinFragmentSlice(DimId dim, Depth depth,
                                              std::int64_t value,
                                              Depth fragment_depth,
                                              std::int64_t begin,
                                              std::int64_t end) const {
  const auto& d = schema_.dimension(dim);
  if (d.index_kind() == IndexKind::kEncoded) {
    const int skip = d.hierarchy().PrefixBits(fragment_depth);
    return encoded_[static_cast<std::size_t>(dim)]->SelectWithinPrefixSlice(
        depth, value, skip, begin, end);
  }
  return simple_[static_cast<std::size_t>(dim)]->SelectSlice(depth, value,
                                                             begin, end);
}

int IndexSet::TotalBitmapCount() const {
  int total = 0;
  for (DimId dim = 0; dim < schema_.num_dimensions(); ++dim) {
    if (encoded_[static_cast<std::size_t>(dim)] != nullptr) {
      total += encoded_[static_cast<std::size_t>(dim)]->bitmap_count();
    } else {
      total += simple_[static_cast<std::size_t>(dim)]->bitmap_count();
    }
  }
  return total;
}

const SimpleBitmapIndex* IndexSet::simple_index(DimId dim) const {
  return simple_[static_cast<std::size_t>(dim)].get();
}

const EncodedBitmapIndex* IndexSet::encoded_index(DimId dim) const {
  return encoded_[static_cast<std::size_t>(dim)].get();
}

}  // namespace mdw
