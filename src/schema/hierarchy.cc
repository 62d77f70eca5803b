#include "schema/hierarchy.h"

#include "common/check.h"
#include "common/math_util.h"

namespace mdw {

Hierarchy::Hierarchy(std::vector<HierarchyLevel> levels)
    : levels_(std::move(levels)) {
  MDW_CHECK(!levels_.empty(), "hierarchy needs at least one level");
  std::int64_t prev = 1;
  for (const auto& lvl : levels_) {
    MDW_CHECK(lvl.cardinality >= 1, "level cardinality must be positive");
    MDW_CHECK(lvl.cardinality % prev == 0,
              "balanced hierarchy requires cardinalities to divide");
    bits_.push_back(BitsFor(lvl.cardinality / prev));
    prev = lvl.cardinality;
  }
}

const HierarchyLevel& Hierarchy::level(Depth d) const {
  MDW_CHECK(d >= 0 && d < num_levels(), "depth out of range");
  return levels_[static_cast<std::size_t>(d)];
}

std::int64_t Hierarchy::Cardinality(Depth d) const {
  return level(d).cardinality;
}

std::int64_t Hierarchy::LeafCardinality() const {
  return levels_.back().cardinality;
}

std::int64_t Hierarchy::Fanout(Depth d) const {
  if (d == -1) return Cardinality(0);
  MDW_CHECK(d < num_levels() - 1, "leaf level has no children");
  return Cardinality(d + 1) / Cardinality(d);
}

std::int64_t Hierarchy::AncestorOfLeaf(std::int64_t leaf, Depth d) const {
  return Ancestor(leaf, leaf_depth(), d);
}

std::int64_t Hierarchy::Ancestor(std::int64_t value, Depth from,
                                 Depth to) const {
  MDW_CHECK(to <= from, "ancestor must be at smaller or equal depth");
  MDW_CHECK(value >= 0 && value < Cardinality(from),
            "value out of range for its level");
  return value / DescendantsPer(to, from);
}

std::pair<std::int64_t, std::int64_t> Hierarchy::LeafRange(std::int64_t value,
                                                           Depth d) const {
  const std::int64_t per = LeavesPer(d);
  return {value * per, value * per + per - 1};
}

std::int64_t Hierarchy::LeavesPer(Depth d) const {
  return DescendantsPer(d, leaf_depth());
}

std::int64_t Hierarchy::DescendantsPer(Depth from, Depth to) const {
  MDW_CHECK(from <= to, "descendants: from must be at most to");
  return Cardinality(to) / Cardinality(from);
}

int Hierarchy::BitsAt(Depth d) const {
  MDW_CHECK(d >= 0 && d < num_levels(), "depth out of range");
  return bits_[static_cast<std::size_t>(d)];
}

int Hierarchy::TotalBits() const { return PrefixBits(leaf_depth()); }

int Hierarchy::PrefixBits(Depth d) const {
  MDW_CHECK(d >= 0 && d < num_levels(), "depth out of range");
  int total = 0;
  for (Depth i = 0; i <= d; ++i) total += bits_[static_cast<std::size_t>(i)];
  return total;
}

std::uint64_t Hierarchy::EncodeLeaf(std::int64_t leaf) const {
  MDW_CHECK(leaf >= 0 && leaf < LeafCardinality(), "leaf out of range");
  std::uint64_t pattern = 0;
  for (Depth d = 0; d < num_levels(); ++d) {
    const std::int64_t ancestor = AncestorOfLeaf(leaf, d);
    const std::int64_t within_parent =
        d == 0 ? ancestor : ancestor % Fanout(d - 1);
    pattern = (pattern << bits_[static_cast<std::size_t>(d)]) |
              static_cast<std::uint64_t>(within_parent);
  }
  return pattern;
}

std::int64_t Hierarchy::DecodeLeaf(std::uint64_t pattern) const {
  std::int64_t value = 0;
  int shift = TotalBits();
  for (Depth d = 0; d < num_levels(); ++d) {
    const int b = bits_[static_cast<std::size_t>(d)];
    shift -= b;
    const auto field =
        static_cast<std::int64_t>((pattern >> shift) & ((1ULL << b) - 1));
    value = value * Fanout(d - 1) + field;
  }
  return value;
}

Depth Hierarchy::DepthOf(std::string_view name) const {
  for (Depth d = 0; d < num_levels(); ++d) {
    if (levels_[static_cast<std::size_t>(d)].name == name) return d;
  }
  return -1;
}

}  // namespace mdw
