#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bitmap/bitvector.h"
#include "common/rng.h"

namespace mdw {
namespace {

TEST(BitVectorTest, StartsAllZero) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130);
  EXPECT_EQ(v.Count(), 0);
  EXPECT_TRUE(v.None());
  for (std::int64_t i = 0; i < 130; ++i) EXPECT_FALSE(v.Get(i));
}

TEST(BitVectorTest, SetGetClear) {
  BitVector v(100);
  v.Set(0);
  v.Set(63);
  v.Set(64);
  v.Set(99);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(63));
  EXPECT_TRUE(v.Get(64));
  EXPECT_TRUE(v.Get(99));
  EXPECT_FALSE(v.Get(1));
  EXPECT_EQ(v.Count(), 4);
  v.Clear(63);
  EXPECT_FALSE(v.Get(63));
  EXPECT_EQ(v.Count(), 3);
}

TEST(BitVectorTest, SetAllRespectsSize) {
  BitVector v(70);
  v.SetAll();
  EXPECT_EQ(v.Count(), 70);
  v.ClearAll();
  EXPECT_EQ(v.Count(), 0);
}

TEST(BitVectorTest, AndOrAndNot) {
  BitVector a(10), b(10);
  a.Set(1);
  a.Set(3);
  a.Set(5);
  b.Set(3);
  b.Set(5);
  b.Set(7);

  BitVector and_result = a & b;
  EXPECT_EQ(and_result.Count(), 2);
  EXPECT_TRUE(and_result.Get(3));
  EXPECT_TRUE(and_result.Get(5));

  BitVector or_result = a | b;
  EXPECT_EQ(or_result.Count(), 4);

  BitVector diff = a;
  diff.AndNot(b);
  EXPECT_EQ(diff.Count(), 1);
  EXPECT_TRUE(diff.Get(1));
}

TEST(BitVectorTest, FlipAllMasksTail) {
  BitVector v(70);
  v.Set(0);
  v.FlipAll();
  EXPECT_EQ(v.Count(), 69);
  EXPECT_FALSE(v.Get(0));
  EXPECT_TRUE(v.Get(69));
  // Flipping twice returns to the original.
  v.FlipAll();
  EXPECT_EQ(v.Count(), 1);
  EXPECT_TRUE(v.Get(0));
}

TEST(BitVectorTest, NextSetBit) {
  BitVector v(200);
  v.Set(5);
  v.Set(64);
  v.Set(199);
  EXPECT_EQ(v.NextSetBit(0), 5);
  EXPECT_EQ(v.NextSetBit(5), 5);
  EXPECT_EQ(v.NextSetBit(6), 64);
  EXPECT_EQ(v.NextSetBit(65), 199);
  EXPECT_EQ(v.NextSetBit(200), -1);
  BitVector empty(50);
  EXPECT_EQ(empty.NextSetBit(0), -1);
}

TEST(BitVectorTest, ForEachSetBitVisitsAscending) {
  BitVector v(300);
  const std::vector<std::int64_t> bits = {0, 1, 63, 64, 65, 128, 299};
  for (const auto b : bits) v.Set(b);
  std::vector<std::int64_t> seen;
  v.ForEachSetBit([&](std::int64_t b) { seen.push_back(b); });
  EXPECT_EQ(seen, bits);
}

TEST(BitVectorTest, EqualityAndCopy) {
  BitVector a(77);
  a.Set(13);
  BitVector b = a;
  EXPECT_TRUE(a == b);
  b.Set(14);
  EXPECT_FALSE(a == b);
}

TEST(BitVectorTest, SizeBytes) {
  EXPECT_EQ(BitVector(64).SizeBytes(), 8);
  EXPECT_EQ(BitVector(65).SizeBytes(), 16);
  EXPECT_EQ(BitVector(0).SizeBytes(), 0);
}

TEST(BitVectorTest, EmptyVector) {
  BitVector v(0);
  EXPECT_EQ(v.Count(), 0);
  EXPECT_TRUE(v.None());
  EXPECT_EQ(v.NextSetBit(0), -1);
  v.SetAll();
  EXPECT_EQ(v.Count(), 0);
}

class BitVectorProperty : public ::testing::TestWithParam<std::int64_t> {};

// Property: De Morgan -- ~(a & b) == ~a | ~b on random vectors.
TEST_P(BitVectorProperty, DeMorgan) {
  const std::int64_t size = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) + 1);
  BitVector a(size), b(size);
  for (std::int64_t i = 0; i < size; ++i) {
    if (rng.UniformReal() < 0.3) a.Set(i);
    if (rng.UniformReal() < 0.6) b.Set(i);
  }
  BitVector lhs = a & b;
  lhs.FlipAll();
  BitVector na = a, nb = b;
  na.FlipAll();
  nb.FlipAll();
  const BitVector rhs = na | nb;
  EXPECT_TRUE(lhs == rhs);
}

// Property: Count(a) + Count(b) == Count(a|b) + Count(a&b).
TEST_P(BitVectorProperty, InclusionExclusion) {
  const std::int64_t size = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) + 99);
  BitVector a(size), b(size);
  for (std::int64_t i = 0; i < size; ++i) {
    if (rng.UniformReal() < 0.4) a.Set(i);
    if (rng.UniformReal() < 0.4) b.Set(i);
  }
  EXPECT_EQ(a.Count() + b.Count(), (a | b).Count() + (a & b).Count());
}

// Property: ForEachSetBit visits exactly Count() bits, all set.
TEST_P(BitVectorProperty, IterationMatchesCount) {
  const std::int64_t size = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) + 7);
  BitVector a(size);
  for (std::int64_t i = 0; i < size; ++i) {
    if (rng.UniformReal() < 0.2) a.Set(i);
  }
  std::int64_t visited = 0;
  a.ForEachSetBit([&](std::int64_t bit) {
    EXPECT_TRUE(a.Get(bit));
    ++visited;
  });
  EXPECT_EQ(visited, a.Count());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorProperty,
                         ::testing::Values<std::int64_t>(1, 63, 64, 65, 127,
                                                         128, 1000, 4096));

// AndWindowInto against a Get()-based reference: bit j of out[i] ends up
// as its seed bit AND (bit begin + 64 * i + j of the vector, zero past
// its end), complemented first in the AND-NOT form. Starts cover every
// offset within the first word and every offset within 64 bits of the
// end (and past it); windows of 0, 1 and 2 words, ones that stop at the
// vector's last word, and ones that run two words past it.
class BitVectorWindow : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BitVectorWindow, AndWindowIntoMatchesGet) {
  const std::int64_t size = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) + 11);
  BitVector v(size);
  for (std::int64_t i = 0; i < size; ++i) {
    if (rng.UniformReal() < 0.5) v.Set(i);
  }
  std::vector<std::int64_t> begins;
  for (std::int64_t b = 0; b < 64; ++b) begins.push_back(b);
  for (std::int64_t b = std::max<std::int64_t>(64, size - 64); b <= size + 64;
       ++b) {
    begins.push_back(b);
  }
  for (const bool complement : {false, true}) {
    for (const std::int64_t begin : begins) {
      const std::int64_t to_end =
          (std::max<std::int64_t>(size - begin, 0) + 63) / 64;
      for (const std::int64_t n_words :
           {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}, to_end,
            to_end + 2}) {
        std::vector<std::uint64_t> seed(static_cast<std::size_t>(n_words));
        for (auto& word : seed) word = rng.engine()();
        std::vector<std::uint64_t> out = seed;
        v.AndWindowInto(begin, n_words, complement, out.data());
        for (std::int64_t i = 0; i < n_words * 64; ++i) {
          const auto w = static_cast<std::size_t>(i / 64);
          const bool seeded = (seed[w] >> (i % 64)) & 1;
          const bool source = begin + i < size && v.Get(begin + i);
          ASSERT_EQ(((out[w] >> (i % 64)) & 1) != 0,
                    seeded && source != complement)
              << "size " << size << " begin " << begin << " words "
              << n_words << " bit " << i << " complement " << complement;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorWindow,
                         ::testing::Values<std::int64_t>(0, 1, 63, 64, 65,
                                                         4096 + 7));

}  // namespace
}  // namespace mdw
