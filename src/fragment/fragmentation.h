#ifndef MDW_FRAGMENT_FRAGMENTATION_H_
#define MDW_FRAGMENT_FRAGMENTATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "schema/star_schema.h"

namespace mdw {

/// One fragmentation attribute of an MDHF fragmentation: a dimension and a
/// hierarchy level, e.g. time::month (paper Sec. 4.1).
struct FragAttr {
  DimId dim;
  Depth depth;

  friend bool operator==(const FragAttr& a, const FragAttr& b) {
    return a.dim == b.dim && a.depth == b.depth;
  }
};

/// Global fragment identifier in [0, FragmentCount()).
using FragId = std::int64_t;

/// A multi-dimensional hierarchical *point* fragmentation (MDHF) of the
/// fact table: one fragmentation attribute per chosen dimension, each value
/// combination forming one fragment (paper Sec. 4.1). Fragment ids are
/// mixed-radix with the LAST attribute varying fastest, matching the
/// allocation order of Fig. 2 (all groups of month 1, then month 2, ...).
///
/// An empty attribute list is the degenerate "no fragmentation" case with a
/// single fragment (useful as a baseline).
class Fragmentation {
 public:
  /// At most this many attributes, so per-attribute state of the hot
  /// loops (a plan's fragment odometer) fits in fixed stack arrays.
  static constexpr int kMaxAttrs = 16;

  Fragmentation(const StarSchema* schema, std::vector<FragAttr> attrs);

  const StarSchema& schema() const { return *schema_; }
  int num_attrs() const { return static_cast<int>(attrs_.size()); }
  const FragAttr& attr(int i) const;
  const std::vector<FragAttr>& attrs() const { return attrs_; }

  /// Cardinality of the i-th fragmentation attribute.
  std::int64_t CardOf(int i) const;

  /// Total number of fact fragments (product of attribute cardinalities).
  std::int64_t FragmentCount() const;

  /// Position of `dim` among the fragmentation attributes, or -1.
  int IndexOfDim(DimId dim) const;
  /// Fragmentation depth for `dim`, or -1 if the dimension is not part of
  /// the fragmentation.
  Depth FragDepthOf(DimId dim) const;

  /// Fragment id of the coordinate vector (one value per attribute, in
  /// attribute order).
  FragId FragmentIdOf(const std::vector<std::int64_t>& coords) const;
  /// Inverse of FragmentIdOf.
  std::vector<std::int64_t> CoordsOf(FragId id) const;

  /// Fragment containing a fact row given its leaf foreign keys
  /// (`leaf_keys[dim]`).
  FragId FragmentOfRow(const std::vector<std::int64_t>& leaf_keys) const;

  /// Average fact tuples per fragment: N / FragmentCount().
  double TuplesPerFragment() const;
  /// Average fact pages per fragment.
  double FactPagesPerFragment() const;
  /// Size of one bitmap fragment in pages (1 bit per tuple of the
  /// fragment); e.g. 4.9 pages for F_MonthGroup at paper scale (Table 6).
  double BitmapFragmentPages() const;

  /// Paper-style label, e.g. "{time::month, product::group}".
  std::string Label() const;

 private:
  const StarSchema* schema_;
  std::vector<FragAttr> attrs_;
  std::vector<std::int64_t> cards_;
};

}  // namespace mdw

#endif  // MDW_FRAGMENT_FRAGMENTATION_H_
