#include "bitmap/bitvector.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_util.h"

namespace mdw {

BitVector::BitVector(std::int64_t size_bits)
    : size_bits_(size_bits),
      words_(static_cast<std::size_t>(CeilDiv(size_bits, 64)), 0) {
  MDW_CHECK(size_bits >= 0, "bit vector size must be non-negative");
}

void BitVector::Set(std::int64_t bit) {
  MDW_CHECK(bit >= 0 && bit < size_bits_, "bit index out of range");
  words_[static_cast<std::size_t>(bit / 64)] |= 1ULL << (bit % 64);
}

void BitVector::Clear(std::int64_t bit) {
  MDW_CHECK(bit >= 0 && bit < size_bits_, "bit index out of range");
  words_[static_cast<std::size_t>(bit / 64)] &= ~(1ULL << (bit % 64));
}

bool BitVector::Get(std::int64_t bit) const {
  MDW_CHECK(bit >= 0 && bit < size_bits_, "bit index out of range");
  return (words_[static_cast<std::size_t>(bit / 64)] >> (bit % 64)) & 1;
}

void BitVector::SetAll() {
  for (auto& w : words_) w = ~0ULL;
  MaskTail();
}

void BitVector::ClearAll() {
  for (auto& w : words_) w = 0;
}

BitVector& BitVector::operator&=(const BitVector& other) {
  MDW_CHECK(size_bits_ == other.size_bits_, "size mismatch in AND");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  MDW_CHECK(size_bits_ == other.size_bits_, "size mismatch in OR");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

BitVector& BitVector::AndNot(const BitVector& other) {
  MDW_CHECK(size_bits_ == other.size_bits_, "size mismatch in AND-NOT");
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= ~other.words_[i];
  }
  return *this;
}

void BitVector::FlipAll() {
  for (auto& w : words_) w = ~w;
  MaskTail();
}

std::int64_t BitVector::Count() const {
  std::int64_t count = 0;
  for (const auto w : words_) count += __builtin_popcountll(w);
  return count;
}

bool BitVector::None() const {
  for (const auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

std::int64_t BitVector::NextSetBit(std::int64_t from) const {
  if (from >= size_bits_) return -1;
  if (from < 0) from = 0;
  auto w = static_cast<std::size_t>(from / 64);
  std::uint64_t word = words_[w] & (~0ULL << (from % 64));
  while (true) {
    if (word != 0) {
      return static_cast<std::int64_t>(w) * 64 + __builtin_ctzll(word);
    }
    if (++w == words_.size()) return -1;
    word = words_[w];
  }
}

void BitVector::AndWindowInto(std::int64_t begin, std::int64_t n_words,
                              bool complement, std::uint64_t* out) const {
  MDW_CHECK(begin >= 0 && n_words >= 0, "word window out of range");
  const std::uint64_t flip = complement ? ~0ULL : 0;
  const auto first = std::min(static_cast<std::size_t>(begin / 64),
                              words_.size());
  const int shift = static_cast<int>(begin % 64);
  // The source words from `first` on; past them every bit reads as zero.
  const std::uint64_t* w = words_.data() + first;
  const auto avail = static_cast<std::int64_t>(words_.size() - first);
  std::int64_t i = 0;
  if (shift == 0) {
    for (const std::int64_t n = std::min(n_words, avail); i < n; ++i) {
      out[i] &= w[i] ^ flip;
    }
  } else {
    // Window word i spans source words i and i + 1; the last source word
    // has no successor, so it is handled apart and nothing past the
    // vector is read.
    for (const std::int64_t n = std::min(n_words, avail - 1); i < n; ++i) {
      out[i] &= ((w[i] >> shift) | (w[i + 1] << (64 - shift))) ^ flip;
    }
    if (i < n_words && i < avail) {
      out[i] &= (w[i] >> shift) ^ flip;
      ++i;
    }
  }
  for (; i < n_words; ++i) out[i] &= flip;
}

void BitVector::MaskTail() {
  const int tail = static_cast<int>(size_bits_ % 64);
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

BitVector operator&(BitVector a, const BitVector& b) {
  a &= b;
  return a;
}

BitVector operator|(BitVector a, const BitVector& b) {
  a |= b;
  return a;
}

}  // namespace mdw
