// Differential decode battery: the batched inflate (deflate_decompress)
// against the seed's bit-serial decoder (reference::deflate_decompress,
// inflate_reference.h).
// The two must agree byte-for-byte on every accepted stream and make the
// identical accept/reject decision on truncated and bit-flipped streams —
// the fast path may change decode speed, never the trust model.
#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "compress/deflate.h"
#include "inflate_reference.h"
#include "support/rng.h"

namespace cdc::compress {
namespace {

std::uint64_t base_seed() {
  const char* value = std::getenv("CDC_FUZZ_BASE_SEED");
  return value != nullptr ? std::strtoull(value, nullptr, 10) : 1;
}

constexpr DeflateLevel kLevels[] = {DeflateLevel::kStored,
                                    DeflateLevel::kFast,
                                    DeflateLevel::kDefault,
                                    DeflateLevel::kBest};

std::vector<std::uint8_t> random_bytes(support::Xoshiro256& rng,
                                       std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// Period-259 ramp: no adjacent repeats, period past the 258-byte match
/// cap (see deflate_fuzz_test.cc).
std::vector<std::uint8_t> rle_hostile(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::uint32_t x = 0;
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(x % 251 + (x / 251) % 5);
    x = (x + 1) % 259;
  }
  return bytes;
}

/// Text-like: small alphabet with word-ish repetition, the shape that
/// produces deep dynamic Huffman tables and long matches together.
std::vector<std::uint8_t> text_like(support::Xoshiro256& rng,
                                    std::size_t n) {
  static constexpr const char* kWords[] = {
      "clock", "delta", "epoch", "order", "replay", "rank",
      "matched", "stream", " ",    "\n",    "record", "chunk"};
  std::vector<std::uint8_t> bytes;
  bytes.reserve(n + 8);
  while (bytes.size() < n) {
    const char* w = kWords[rng.bounded(std::size(kWords))];
    while (*w != '\0') bytes.push_back(static_cast<std::uint8_t>(*w++));
  }
  bytes.resize(n);
  return bytes;
}

/// Mixed entropy: alternating constant and random pages, forcing block
/// type switches (stored vs fixed vs dynamic) inside one stream.
std::vector<std::uint8_t> mixed_entropy(support::Xoshiro256& rng,
                                        std::size_t n) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(n);
  bool noisy = false;
  while (bytes.size() < n) {
    const std::size_t page =
        std::min<std::size_t>(512 + rng.bounded(1024), n - bytes.size());
    if (noisy) {
      for (std::size_t i = 0; i < page; ++i)
        bytes.push_back(static_cast<std::uint8_t>(rng()));
    } else {
      bytes.insert(bytes.end(), page, static_cast<std::uint8_t>(rng()));
    }
    noisy = !noisy;
  }
  return bytes;
}

/// The seeded corpus: 64+ payloads covering sizes from empty through tens
/// of KiB and four structural shapes.
std::vector<std::vector<std::uint8_t>> build_corpus(std::uint64_t seed) {
  support::Xoshiro256 rng(seed * 101);
  std::vector<std::vector<std::uint8_t>> corpus;
  const std::size_t sizes[] = {0,   1,    2,    3,     257,  258,
                               259, 1024, 4096, 16384, 65536};
  for (const std::size_t n : sizes) corpus.push_back(random_bytes(rng, n));
  for (const std::size_t n : sizes)
    corpus.push_back(std::vector<std::uint8_t>(n, 0));
  for (const std::size_t n : sizes) corpus.push_back(rle_hostile(n));
  for (const std::size_t n : sizes) corpus.push_back(text_like(rng, n));
  for (const std::size_t n : sizes) corpus.push_back(mixed_entropy(rng, n));
  for (int extra = 0; extra < 12; ++extra)
    corpus.push_back(random_bytes(rng, 100 + rng.bounded(9000)));
  return corpus;  // 11 * 5 + 12 = 67 payloads
}

/// Both decoders over one stream: same decision, same bytes.
void expect_identical(std::span<const std::uint8_t> stream,
                      const std::string& what) {
  const auto fast = deflate_decompress(stream);
  const auto oracle = reference::deflate_decompress(stream);
  ASSERT_EQ(fast.has_value(), oracle.has_value()) << what;
  if (fast.has_value()) {
    ASSERT_EQ(*fast, *oracle) << what;
  }
}

TEST(fuzz_inflate_differential, CorpusEveryLevelByteForByte) {
  const auto corpus = build_corpus(base_seed());
  ASSERT_GE(corpus.size(), 64u);
  std::size_t idx = 0;
  for (const auto& payload : corpus) {
    for (const DeflateLevel level : kLevels) {
      const auto packed = deflate_compress(payload, level);
      const auto fast = deflate_decompress(packed);
      const auto oracle = reference::deflate_decompress(packed);
      const std::string what = "payload " + std::to_string(idx) + " level " +
                               std::string(to_string(level));
      ASSERT_TRUE(fast.has_value()) << what;
      ASSERT_TRUE(oracle.has_value()) << what;
      ASSERT_EQ(*fast, payload) << what;
      ASSERT_EQ(*oracle, payload) << what;
    }
    ++idx;
  }
}

TEST(fuzz_inflate_differential, ReusedBufferIsEquivalent) {
  // The pooled-output seam: a dirty donated buffer must not leak into the
  // result, and repeated decodes through one buffer stay correct.
  const auto corpus = build_corpus(base_seed() * 3);
  std::vector<std::uint8_t> reuse(512, 0xEE);
  for (const auto& payload : corpus) {
    const auto packed = deflate_compress(payload, DeflateLevel::kDefault);
    auto decoded = deflate_decompress(packed, std::move(reuse));
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(*decoded, payload);
    reuse = std::move(*decoded);
  }
}

TEST(fuzz_inflate_differential, TruncatedStreamsRejectedIdentically) {
  support::Xoshiro256 rng(base_seed() * 103);
  for (const DeflateLevel level : kLevels) {
    const auto payload = mixed_entropy(rng, 6000);
    const auto packed = deflate_compress(payload, level);
    for (std::size_t keep = 0; keep < packed.size(); ++keep) {
      expect_identical({packed.data(), keep},
                       "level " + std::string(to_string(level)) +
                           " truncated to " + std::to_string(keep));
    }
  }
}

TEST(fuzz_inflate_differential, BitFlippedStreamsRejectedIdentically) {
  support::Xoshiro256 rng(base_seed() * 107);
  for (const DeflateLevel level : kLevels) {
    const auto payload = text_like(rng, 4096);
    const auto packed = deflate_compress(payload, level);
    // Exhaustive single-bit sweep over the header region (block headers
    // and Huffman tables live here — the decode paths most sensitive to
    // divergence), then seeded flips over the whole stream.
    const std::size_t header_bytes = std::min<std::size_t>(packed.size(), 64);
    for (std::size_t byte = 0; byte < header_bytes; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto corrupt = packed;
        corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
        expect_identical(corrupt, "level " + std::string(to_string(level)) +
                                      " flip byte " + std::to_string(byte) +
                                      " bit " + std::to_string(bit));
      }
    }
    for (int trial = 0; trial < 400; ++trial) {
      auto corrupt = packed;
      const std::size_t byte = rng.bounded(corrupt.size());
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
      expect_identical(corrupt, "level " + std::string(to_string(level)) +
                                    " trial " + std::to_string(trial));
    }
  }
}

TEST(fuzz_inflate_differential, GarbageStreamsRejectedIdentically) {
  support::Xoshiro256 rng(base_seed() * 109);
  for (int trial = 0; trial < 128; ++trial) {
    const auto garbage = random_bytes(rng, rng.bounded(512));
    expect_identical(garbage, "garbage trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace cdc::compress
