#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "bitmap/encoded_bitmap_index.h"
#include "bitmap/index_set.h"
#include "bitmap/simple_bitmap_index.h"
#include "common/rng.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

// A small column of foreign keys into a hierarchy, for direct index tests.
std::vector<std::int64_t> RandomColumn(std::int64_t rows,
                                       std::int64_t leaf_card,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> column;
  column.reserve(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    column.push_back(rng.Uniform(0, leaf_card - 1));
  }
  return column;
}

// Brute-force reference: rows whose key's ancestor at `depth` equals value.
BitVector Reference(const Hierarchy& h,
                    const std::vector<std::int64_t>& column, Depth depth,
                    std::int64_t value) {
  BitVector expected(static_cast<std::int64_t>(column.size()));
  for (std::size_t r = 0; r < column.size(); ++r) {
    if (h.AncestorOfLeaf(column[r], depth) == value) {
      expected.Set(static_cast<std::int64_t>(r));
    }
  }
  return expected;
}

TEST(SimpleBitmapIndexTest, BitmapCountSumsLevelCardinalities) {
  const Hierarchy time({{"year", 2}, {"quarter", 8}, {"month", 24}});
  const auto column = RandomColumn(500, 24, 1);
  const SimpleBitmapIndex index(time, column);
  EXPECT_EQ(index.bitmap_count(), 34);  // paper: 24 + 8 + 2
  EXPECT_EQ(index.row_count(), 500);
}

TEST(SimpleBitmapIndexTest, SelectMatchesBruteForceAllLevels) {
  const Hierarchy time({{"year", 2}, {"quarter", 8}, {"month", 24}});
  const auto column = RandomColumn(1'000, 24, 2);
  const SimpleBitmapIndex index(time, column);
  for (Depth d = 0; d < time.num_levels(); ++d) {
    for (std::int64_t v = 0; v < time.Cardinality(d); ++v) {
      EXPECT_TRUE(index.Select(d, v) == Reference(time, column, d, v))
          << "depth " << d << " value " << v;
    }
  }
}

TEST(SimpleBitmapIndexTest, LevelBitmapsPartitionRows) {
  const Hierarchy time({{"year", 2}, {"quarter", 8}, {"month", 24}});
  const auto column = RandomColumn(800, 24, 3);
  const SimpleBitmapIndex index(time, column);
  for (Depth d = 0; d < time.num_levels(); ++d) {
    std::int64_t total = 0;
    for (std::int64_t v = 0; v < time.Cardinality(d); ++v) {
      total += index.Bitmap(d, v).Count();
    }
    EXPECT_EQ(total, 800) << "level " << d;
  }
}

class EncodedIndexTest : public ::testing::Test {
 protected:
  EncodedIndexTest()
      : product_({{"division", 8},
                  {"line", 24},
                  {"family", 120},
                  {"group", 480},
                  {"class", 960},
                  {"code", 14'400}}),
        column_(RandomColumn(2'000, 14'400, 4)),
        index_(product_, column_) {}

  Hierarchy product_;
  std::vector<std::int64_t> column_;
  EncodedBitmapIndex index_;
};

TEST_F(EncodedIndexTest, FifteenBitmapsForProduct) {
  // Paper Sec. 3.2: 15 bitmaps instead of 14,400 simple ones.
  EXPECT_EQ(index_.bitmap_count(), 15);
}

TEST_F(EncodedIndexTest, SelectLeafMatchesBruteForce) {
  for (std::int64_t code = 0; code < 14'400; code += 977) {
    EXPECT_TRUE(index_.Select(5, code) ==
                Reference(product_, column_, 5, code))
        << "code " << code;
  }
}

TEST_F(EncodedIndexTest, SelectEveryLevelMatchesBruteForce) {
  for (Depth d = 0; d < product_.num_levels(); ++d) {
    const std::int64_t step = std::max<std::int64_t>(
        product_.Cardinality(d) / 17, 1);
    for (std::int64_t v = 0; v < product_.Cardinality(d); v += step) {
      EXPECT_TRUE(index_.Select(d, v) == Reference(product_, column_, d, v))
          << "depth " << d << " value " << v;
    }
  }
}

TEST_F(EncodedIndexTest, GroupSelectionReadsTenBitmaps) {
  // Paper Table 1: a GROUP is located via the 10-bit prefix.
  EXPECT_EQ(index_.BitmapsRead(/*depth=*/3, /*skip_bits=*/0), 10);
  // A CODE within a known group: only the 5 suffix bitmaps.
  EXPECT_EQ(index_.BitmapsRead(/*depth=*/5, /*skip_bits=*/10), 5);
  // A full CODE lookup: all 15 (paper: "needs to evaluate 15 bitmaps").
  EXPECT_EQ(index_.BitmapsRead(/*depth=*/5, /*skip_bits=*/0), 15);
}

TEST_F(EncodedIndexTest, SelectWithinPrefixEqualsFullSelectInsideFragment) {
  // Within the rows of one group, suffix-only selection of a code must
  // agree with the full selection.
  const std::int64_t code = 4'217;
  const std::int64_t group = product_.AncestorOfLeaf(code, 3);
  const BitVector group_rows = index_.Select(3, group);
  BitVector suffix = index_.SelectWithinPrefix(5, code, 10);
  suffix &= group_rows;
  EXPECT_TRUE(suffix == index_.Select(5, code));
}

TEST_F(EncodedIndexTest, PrefixPatternMatchesEncoding) {
  const std::int64_t code = 123;
  const auto full = index_.PrefixPattern(5, code);
  EXPECT_EQ(full, product_.EncodeLeaf(code));
  const auto group_prefix = index_.PrefixPattern(3, product_.AncestorOfLeaf(code, 3));
  EXPECT_EQ(group_prefix, full >> 5);
}

TEST_F(EncodedIndexTest, DisjointValuesDisjointRows) {
  const BitVector a = index_.Select(0, 0);  // division 0
  const BitVector b = index_.Select(0, 1);  // division 1
  EXPECT_TRUE((a & b).None());
}

TEST(EncodedIndexCustomerTest, TwelveBitmaps) {
  const Hierarchy customer({{"retailer", 144}, {"store", 1'440}});
  const auto column = RandomColumn(1'000, 1'440, 5);
  const EncodedBitmapIndex index(customer, column);
  EXPECT_EQ(index.bitmap_count(), 12);  // paper: 12 bitmaps for CUSTOMER
  for (std::int64_t store = 0; store < 1'440; store += 111) {
    EXPECT_TRUE(index.Select(1, store) ==
                Reference(customer, column, 1, store));
  }
}

TEST(IndexSetTest, TinySchemaHasAllIndices) {
  const auto schema = MakeTinyApb1Schema();
  FactColumns facts;
  facts.columns.resize(4);
  Rng rng(6);
  for (int r = 0; r < 3'000; ++r) {
    for (DimId d = 0; d < 4; ++d) {
      facts.columns[static_cast<std::size_t>(d)].push_back(rng.Uniform(
          0, schema.dimension(d).hierarchy().LeafCardinality() - 1));
    }
  }
  const IndexSet set(schema, facts);
  EXPECT_NE(set.encoded_index(kApb1Product), nullptr);
  EXPECT_NE(set.encoded_index(kApb1Customer), nullptr);
  EXPECT_NE(set.simple_index(kApb1Channel), nullptr);
  EXPECT_NE(set.simple_index(kApb1Time), nullptr);
  EXPECT_EQ(set.simple_index(kApb1Product), nullptr);
  EXPECT_GT(set.TotalBitmapCount(), 0);
}

TEST(IndexSetTest, SelectAgreesAcrossIndexKinds) {
  const auto schema = MakeTinyApb1Schema();
  FactColumns facts;
  facts.columns.resize(4);
  Rng rng(7);
  for (int r = 0; r < 2'000; ++r) {
    for (DimId d = 0; d < 4; ++d) {
      facts.columns[static_cast<std::size_t>(d)].push_back(rng.Uniform(
          0, schema.dimension(d).hierarchy().LeafCardinality() - 1));
    }
  }
  const IndexSet set(schema, facts);
  for (DimId d = 0; d < 4; ++d) {
    const auto& h = schema.dimension(d).hierarchy();
    for (Depth depth = 0; depth < h.num_levels(); ++depth) {
      for (std::int64_t v = 0; v < h.Cardinality(depth);
           v += std::max<std::int64_t>(h.Cardinality(depth) / 5, 1)) {
        const auto got = set.Select(d, depth, v);
        const auto expected = Reference(
            h, facts.columns[static_cast<std::size_t>(d)], depth, v);
        EXPECT_TRUE(got == expected)
            << "dim " << d << " depth " << depth << " value " << v;
      }
    }
  }
}

// The tiny schema's four indexes over `rows` random fact rows.
FactColumns RandomFacts(const StarSchema& schema, int rows,
                        std::uint64_t seed) {
  FactColumns facts;
  facts.columns.resize(static_cast<std::size_t>(schema.num_dimensions()));
  Rng rng(seed);
  for (int r = 0; r < rows; ++r) {
    for (DimId d = 0; d < schema.num_dimensions(); ++d) {
      facts.columns[static_cast<std::size_t>(d)].push_back(rng.Uniform(
          0, schema.dimension(d).hierarchy().LeafCardinality() - 1));
    }
  }
  return facts;
}

// AndSelectionInto against the full-width selections, on both index
// kinds, at every level, with and without a fragmentation depth: ranges
// that are empty, start off a word boundary, span several words or end
// at the table's last row. Only the words' bits inside the range count;
// the seed words are all ones, so each bit is the selection's own.
TEST(IndexSetTest, AndSelectionIntoMatchesSelectOverAnyRange) {
  const auto schema = MakeTinyApb1Schema();
  const FactColumns facts = RandomFacts(schema, 1'037, 8);
  const IndexSet set(schema, facts);
  const std::int64_t rows = facts.row_count();
  const std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
      {0, rows}, {0, 0}, {5, 5}, {1, 64}, {3, 200}, {63, 65}, {64, 128},
      {130, rows - 3}, {rows - 70, rows}, {rows - 1, rows}};
  for (DimId d = 0; d < schema.num_dimensions(); ++d) {
    const auto& h = schema.dimension(d).hierarchy();
    const EncodedBitmapIndex* encoded = set.encoded_index(d);
    for (Depth depth = 0; depth < h.num_levels(); ++depth) {
      for (Depth frag = -1; frag <= depth; ++frag) {
        for (std::int64_t v = 0; v < h.Cardinality(depth);
             v += std::max<std::int64_t>(h.Cardinality(depth) / 4, 1)) {
          const BitVector expected =
              encoded != nullptr
                  ? encoded->SelectWithinPrefix(
                        depth, v, frag >= 0 ? h.PrefixBits(frag) : 0)
                  : set.Select(d, depth, v);
          for (const auto& [begin, end] : ranges) {
            std::vector<std::uint64_t> out(
                static_cast<std::size_t>((end - begin + 63) / 64), ~0ULL);
            set.AndSelectionInto(d, depth, v, frag, begin, end, out.data());
            for (std::int64_t i = 0; i < end - begin; ++i) {
              const auto w = static_cast<std::size_t>(i / 64);
              ASSERT_EQ(((out[w] >> (i % 64)) & 1) != 0,
                        expected.Get(begin + i))
                  << "dim " << d << " depth " << depth << " fragment depth "
                  << frag << " value " << v << " rows [" << begin << ", "
                  << end << ") bit " << i;
            }
          }
        }
      }
    }
  }
}

// The selections keep their range and prefix checks.
TEST(IndexSetTest, AndSelectionIntoChecksRangeAndSkipBits) {
  const auto schema = MakeTinyApb1Schema();
  const FactColumns facts = RandomFacts(schema, 300, 9);
  const IndexSet set(schema, facts);
  std::vector<std::uint64_t> out(8, ~0ULL);
  EXPECT_DEATH(set.AndSelectionInto(kApb1Product, 3, 1, -1, 10, 301,
                                    out.data()),
               "row range out of bounds");
  EXPECT_DEATH(set.AndSelectionInto(kApb1Channel, 0, 1, -1, 20, 10,
                                    out.data()),
               "row range out of bounds");
  // A fragmentation level below the selection's level has no suffix.
  EXPECT_DEATH(set.AndSelectionInto(kApb1Product, 2, 1, 3, 0, 300,
                                    out.data()),
               "skip_bits must not exceed");
}

}  // namespace
}  // namespace mdw
