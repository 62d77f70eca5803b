#include "fragment/fragmentation.h"

#include "common/check.h"
#include "common/math_util.h"

namespace mdw {

Fragmentation::Fragmentation(const StarSchema* schema,
                             std::vector<FragAttr> attrs)
    : schema_(schema), attrs_(std::move(attrs)) {
  MDW_CHECK(schema_ != nullptr, "fragmentation needs a schema");
  MDW_CHECK(attrs_.size() <= static_cast<std::size_t>(kMaxAttrs),
            "too many fragmentation attributes");
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    const auto& a = attrs_[i];
    MDW_CHECK(a.dim >= 0 && a.dim < schema_->num_dimensions(),
              "fragmentation attribute references unknown dimension");
    const auto& h = schema_->dimension(a.dim).hierarchy();
    MDW_CHECK(a.depth >= 0 && a.depth < h.num_levels(),
              "fragmentation attribute depth out of range");
    for (std::size_t j = 0; j < i; ++j) {
      MDW_CHECK(attrs_[j].dim != a.dim,
                "each fragmentation attribute must use a distinct dimension");
    }
    cards_.push_back(h.Cardinality(a.depth));
  }
}

const FragAttr& Fragmentation::attr(int i) const {
  MDW_CHECK(i >= 0 && i < num_attrs(), "attribute index out of range");
  return attrs_[static_cast<std::size_t>(i)];
}

std::int64_t Fragmentation::CardOf(int i) const {
  MDW_CHECK(i >= 0 && i < num_attrs(), "attribute index out of range");
  return cards_[static_cast<std::size_t>(i)];
}

std::int64_t Fragmentation::FragmentCount() const {
  std::int64_t product = 1;
  for (const auto c : cards_) product *= c;
  return product;
}

int Fragmentation::IndexOfDim(DimId dim) const {
  for (int i = 0; i < num_attrs(); ++i) {
    if (attrs_[static_cast<std::size_t>(i)].dim == dim) return i;
  }
  return -1;
}

Depth Fragmentation::FragDepthOf(DimId dim) const {
  const int i = IndexOfDim(dim);
  return i < 0 ? -1 : attrs_[static_cast<std::size_t>(i)].depth;
}

FragId Fragmentation::FragmentIdOf(
    const std::vector<std::int64_t>& coords) const {
  MDW_CHECK(static_cast<int>(coords.size()) == num_attrs(),
            "coordinate count must match attribute count");
  FragId id = 0;
  for (int i = 0; i < num_attrs(); ++i) {
    const std::int64_t c = coords[static_cast<std::size_t>(i)];
    MDW_CHECK(c >= 0 && c < CardOf(i), "coordinate out of range");
    id = id * CardOf(i) + c;
  }
  return id;
}

std::vector<std::int64_t> Fragmentation::CoordsOf(FragId id) const {
  MDW_CHECK(id >= 0 && id < FragmentCount(), "fragment id out of range");
  std::vector<std::int64_t> coords(static_cast<std::size_t>(num_attrs()));
  for (int i = num_attrs() - 1; i >= 0; --i) {
    coords[static_cast<std::size_t>(i)] = id % CardOf(i);
    id /= CardOf(i);
  }
  return coords;
}

FragId Fragmentation::FragmentOfRow(
    const std::vector<std::int64_t>& leaf_keys) const {
  MDW_CHECK(static_cast<int>(leaf_keys.size()) == schema_->num_dimensions(),
            "one leaf key per dimension required");
  std::vector<std::int64_t> coords;
  coords.reserve(static_cast<std::size_t>(num_attrs()));
  for (const auto& a : attrs_) {
    const auto& h = schema_->dimension(a.dim).hierarchy();
    coords.push_back(
        h.AncestorOfLeaf(leaf_keys[static_cast<std::size_t>(a.dim)], a.depth));
  }
  return FragmentIdOf(coords);
}

double Fragmentation::TuplesPerFragment() const {
  return static_cast<double>(schema_->FactCount()) /
         static_cast<double>(FragmentCount());
}

double Fragmentation::FactPagesPerFragment() const {
  return TuplesPerFragment() /
         static_cast<double>(schema_->physical().TuplesPerPage());
}

double Fragmentation::BitmapFragmentPages() const {
  return TuplesPerFragment() / 8.0 /
         static_cast<double>(schema_->physical().page_size_bytes);
}

std::string Fragmentation::Label() const {
  if (attrs_.empty()) return "{unfragmented}";
  std::string label = "{";
  for (int i = 0; i < num_attrs(); ++i) {
    if (i > 0) label += ", ";
    const auto& a = attrs_[static_cast<std::size_t>(i)];
    label += schema_->dimension(a.dim).AttributeLabel(a.depth);
  }
  label += "}";
  return label;
}

}  // namespace mdw
