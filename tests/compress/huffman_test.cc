#include "compress/huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "package_merge_reference.h"
#include "support/rng.h"

namespace cdc::compress {
namespace {

std::vector<std::uint8_t> lengths_for(std::span<const std::uint64_t> freqs,
                                      int limit) {
  std::vector<std::uint8_t> lengths(freqs.size());
  package_merge_lengths(freqs, limit, lengths);
  return lengths;
}

std::vector<std::uint32_t> canonical_codes(
    std::span<const std::uint8_t> lengths) {
  auto next = canonical_first_codes(lengths);
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] > 0) codes[s] = next[lengths[s]]++;
  return codes;
}

double kraft_sum(std::span<const std::uint8_t> lengths) {
  double sum = 0.0;
  for (const std::uint8_t len : lengths)
    if (len > 0) sum += std::ldexp(1.0, -len);
  return sum;
}

TEST(PackageMerge, TwoSymbols) {
  const std::uint64_t freqs[] = {5, 1};
  const auto lengths = lengths_for(freqs, 15);
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 1);
}

TEST(PackageMerge, SingleSymbolGetsLengthOne) {
  const std::uint64_t freqs[] = {0, 42, 0};
  const auto lengths = lengths_for(freqs, 15);
  EXPECT_EQ(lengths[0], 0);
  EXPECT_EQ(lengths[1], 1);
  EXPECT_EQ(lengths[2], 0);
}

TEST(PackageMerge, SkewedFrequenciesGetShortCodesForCommonSymbols) {
  const std::uint64_t freqs[] = {1000, 100, 10, 1};
  const auto lengths = lengths_for(freqs, 15);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[2]);
  EXPECT_LE(lengths[2], lengths[3]);
  EXPECT_DOUBLE_EQ(kraft_sum(lengths), 1.0);
}

TEST(PackageMerge, RespectsLengthLimit) {
  // Fibonacci-like frequencies force deep unbounded Huffman trees.
  std::vector<std::uint64_t> freqs = {1, 1};
  while (freqs.size() < 24)
    freqs.push_back(freqs[freqs.size() - 1] + freqs[freqs.size() - 2]);
  for (const int limit : {7, 10, 15}) {
    const auto lengths = lengths_for(freqs, limit);
    for (const std::uint8_t len : lengths) EXPECT_LE(len, limit);
    EXPECT_LE(kraft_sum(lengths), 1.0 + 1e-12);
  }
}

TEST(PackageMerge, KraftEqualityHolds) {
  support::Xoshiro256 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> freqs(2 + rng.bounded(200));
    for (auto& f : freqs) f = rng.bounded(10000);
    std::size_t nonzero = 0;
    for (const auto f : freqs) nonzero += f > 0;
    if (nonzero < 2) continue;
    const auto lengths = lengths_for(freqs, 15);
    EXPECT_NEAR(kraft_sum(lengths), 1.0, 1e-12);
  }
}

TEST(PackageMerge, IsOptimalAtGenerousLimit) {
  // Against entropy bound: average length within 1 bit of entropy.
  support::Xoshiro256 rng(12);
  std::vector<std::uint64_t> freqs(64);
  for (auto& f : freqs) f = 1 + rng.bounded(1000);
  const auto lengths = lengths_for(freqs, 15);
  const double total = static_cast<double>(
      std::accumulate(freqs.begin(), freqs.end(), std::uint64_t{0}));
  double entropy = 0.0;
  double avg_len = 0.0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    const double p = static_cast<double>(freqs[s]) / total;
    entropy -= p * std::log2(p);
    avg_len += p * lengths[s];
  }
  EXPECT_GE(avg_len, entropy - 1e-9);
  EXPECT_LE(avg_len, entropy + 1.0);
}

// --- Differential: flag-based package-merge vs the seed's symbol lists ----

void expect_matches_reference(std::span<const std::uint64_t> freqs,
                              int limit, const std::string& what) {
  const auto expected = reference::package_merge_lengths(freqs, limit);
  const auto actual = lengths_for(freqs, limit);
  ASSERT_EQ(actual, expected) << what << " (n=" << freqs.size()
                              << ", limit=" << limit << ")";
}

/// The smallest limit whose code space fits the coded symbols.
int min_limit(std::span<const std::uint64_t> freqs) {
  const auto coded = static_cast<std::size_t>(
      std::count_if(freqs.begin(), freqs.end(),
                    [](std::uint64_t f) { return f > 0; }));
  int limit = 1;
  while ((std::size_t{1} << limit) < coded) ++limit;
  return limit;
}

TEST(PackageMergeDifferential, RandomFrequencySetsMatchReference) {
  support::Xoshiro256 rng(21);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint64_t> freqs(1 + rng.bounded(288));
    const std::uint64_t shape = rng.bounded(4);
    for (auto& f : freqs) {
      switch (shape) {
        case 0: f = rng.bounded(10000); break;                // flat
        case 1: f = std::uint64_t{1} << rng.bounded(24); break;  // skewed
        case 2: f = rng.bounded(3) == 0 ? 1 + rng.bounded(50) : 0; break;
        default: f = rng.bounded(8); break;                   // tie-heavy
      }
    }
    const int limit =
        std::max(min_limit(freqs), 7 + static_cast<int>(rng.bounded(9)));
    expect_matches_reference(freqs, limit, "trial " + std::to_string(trial));
  }
}

TEST(PackageMergeDifferential, AllEqualWeights) {
  for (std::size_t n = 2; n <= 288; ++n) {
    const std::vector<std::uint64_t> freqs(n, 7);
    expect_matches_reference(freqs, 15, "equal");
    expect_matches_reference(freqs, min_limit(freqs), "equal, tight limit");
  }
}

TEST(PackageMergeDifferential, ManyTies) {
  support::Xoshiro256 rng(22);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint64_t> freqs(2 + rng.bounded(287));
    for (auto& f : freqs) f = 1 + rng.bounded(3);
    for (const int limit : {min_limit(freqs), 9, 15}) {
      if (limit < min_limit(freqs)) continue;
      expect_matches_reference(freqs, limit, "ties " + std::to_string(trial));
    }
  }
}

TEST(PackageMergeDifferential, FibonacciWeights) {
  std::vector<std::uint64_t> fib = {1, 1};
  while (fib.size() < 60)
    fib.push_back(fib[fib.size() - 1] + fib[fib.size() - 2]);
  support::Xoshiro256 rng(23);
  for (std::size_t n = 3; n <= fib.size(); ++n) {
    std::vector<std::uint64_t> freqs(
        fib.begin(), fib.begin() + static_cast<std::ptrdiff_t>(n));
    for (int order = 0; order < 3; ++order) {
      if (order == 1) std::reverse(freqs.begin(), freqs.end());
      if (order == 2) {
        for (std::size_t i = freqs.size() - 1; i > 0; --i)
          std::swap(freqs[i], freqs[rng.bounded(i + 1)]);
      }
      for (const int limit : {7, 10, 15, 32}) {
        if (limit < min_limit(freqs)) continue;
        expect_matches_reference(freqs, limit, "fib " + std::to_string(n));
      }
    }
  }
}

TEST(PackageMergeDifferential, AlphabetFillsTheCodeSpace) {
  // n == 2^limit: the only valid code is the complete one of depth limit.
  support::Xoshiro256 rng(24);
  for (int limit = 1; limit <= 8; ++limit) {
    const std::size_t n = std::size_t{1} << limit;
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::uint64_t> freqs(n);
      for (auto& f : freqs)
        f = trial == 0 ? 1 : 1 + (std::uint64_t{1} << rng.bounded(20));
      expect_matches_reference(freqs, limit, "full code space");
      const auto lengths = lengths_for(freqs, limit);
      for (const std::uint8_t len : lengths) EXPECT_EQ(len, limit);
    }
  }
}

TEST(PackageMergeDifferential, CodeLengthAlphabetAtLimitSeven) {
  // The dynamic header's code-length code: 19 symbols, 7-bit limit.
  support::Xoshiro256 rng(25);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint64_t> freqs(19);
    for (auto& f : freqs) {
      const std::uint64_t r = rng.bounded(4);
      f = r == 0 ? 0 : r == 1 ? 1 + rng.bounded(4) : rng.bounded(400);
    }
    if (trial % 5 == 0) freqs[rng.bounded(19)] = 100000;  // one dominant
    expect_matches_reference(freqs, 7, "cl " + std::to_string(trial));
  }
}

TEST(CanonicalCodes, Rfc1951Example) {
  // RFC 1951 §3.2.2 worked example: lengths (3,3,3,3,3,2,4,4) →
  // codes (010,011,100,101,110,00,1110,1111).
  const std::uint8_t lengths[] = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto codes = canonical_codes(lengths);
  const std::uint32_t expected[] = {0b010, 0b011, 0b100, 0b101,
                                    0b110, 0b00,  0b1110, 0b1111};
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(codes[i], expected[i]);
}

TEST(HuffmanDecoder, DecodesCanonicalCodes) {
  const std::uint8_t lengths[] = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto codes = canonical_codes(lengths);
  HuffmanDecoder decoder{std::span<const std::uint8_t>{lengths}};
  ASSERT_TRUE(decoder.ok());

  for (int sym = 0; sym < 8; ++sym) {
    decoder.reset();
    int result = -1;
    for (int bit = lengths[sym] - 1; bit >= 0; --bit) {
      result = decoder.feed((codes[static_cast<std::size_t>(sym)] >> bit) & 1);
    }
    EXPECT_EQ(result, sym);
  }
}

TEST(HuffmanDecoder, RejectsOversubscribedLengths) {
  const std::uint8_t lengths[] = {1, 1, 1};  // Kraft sum 1.5
  HuffmanDecoder decoder;
  EXPECT_FALSE(decoder.init(lengths));
}

TEST(HuffmanDecoder, RejectsIncompleteMultiSymbolLengths) {
  const std::uint8_t lengths[] = {2, 2, 2};  // Kraft sum 0.75
  HuffmanDecoder decoder;
  EXPECT_FALSE(decoder.init(lengths));
}

TEST(HuffmanDecoder, AcceptsDegenerateSingleCode) {
  const std::uint8_t lengths[] = {0, 1, 0};
  HuffmanDecoder decoder;
  ASSERT_TRUE(decoder.init(lengths));
  decoder.reset();
  EXPECT_EQ(decoder.feed(0), 1);
}

TEST(HuffmanDecoder, RoundTripRandomAlphabets) {
  support::Xoshiro256 rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freqs(2 + rng.bounded(280));
    for (auto& f : freqs) f = rng.bounded(500);
    freqs[0] = 1;
    freqs[1] = 1;  // at least two coded symbols
    const auto lengths = lengths_for(freqs, 15);
    const auto codes = canonical_codes(lengths);
    HuffmanDecoder decoder{std::span<const std::uint8_t>{lengths}};
    ASSERT_TRUE(decoder.ok());
    for (std::size_t sym = 0; sym < freqs.size(); ++sym) {
      if (lengths[sym] == 0) continue;
      decoder.reset();
      int result = -1;
      for (int bit = lengths[sym] - 1; bit >= 0; --bit)
        result = decoder.feed((codes[sym] >> bit) & 1);
      EXPECT_EQ(result, static_cast<int>(sym));
    }
  }
}

}  // namespace
}  // namespace cdc::compress
