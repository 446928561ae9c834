// Golden output of the DEFLATE encoder on record-sized frames. The
// encoder's determinism contract (deflate.h) promises identical bytes for
// a given (input, level); this pins those bytes across encoder rewrites,
// so a change to Huffman-length construction, code assignment or block
// choice that alters even one output bit fails here, not in a container
// baseline much later.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/deflate.h"
#include "support/rng.h"

namespace cdc::compress {
namespace {

constexpr DeflateLevel kAllLevels[] = {
    DeflateLevel::kStored, DeflateLevel::kFast, DeflateLevel::kDefault,
    DeflateLevel::kBest};

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  std::array<std::uint8_t, 8> bytes{};
  for (std::size_t i = 0; i < 8; ++i)
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv1a(h, bytes);
}

/// 96 frames of 64 B..1 KiB in four shapes: near-zero varint-heavy bytes
/// (serialized CDC chunks), small-delta LEB128 counters, word-like text
/// and random bytes. Between them they drive every block type.
std::vector<std::vector<std::uint8_t>> record_like_frames() {
  support::Xoshiro256 rng(0x5eedf4a3e5ull);
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 96; ++i) {
    const std::size_t n = i == 0   ? 64
                          : i == 1 ? 1024
                                   : 64 + rng.bounded(1024 - 64 + 1);
    std::vector<std::uint8_t> frame;
    frame.reserve(n + 8);
    switch (i % 4) {
      case 0:
        while (frame.size() < n)
          frame.push_back(rng.uniform() < 0.85
                              ? 0
                              : static_cast<std::uint8_t>(rng.bounded(6)));
        break;
      case 1: {
        std::uint64_t value = rng.bounded(1000);
        while (frame.size() < n) {
          value += rng.bounded(300);
          std::uint64_t v = value;
          do {
            const auto low = static_cast<std::uint8_t>(v & 0x7f);
            v >>= 7;
            frame.push_back(v != 0 ? static_cast<std::uint8_t>(low | 0x80)
                                   : low);
          } while (v != 0);
        }
        break;
      }
      case 2: {
        static constexpr const char* kWords[] = {
            "rank", "epoch", "matched", "clock", "delta", " ", "\n", "mf"};
        while (frame.size() < n)
          for (const char* w = kWords[rng.bounded(std::size(kWords))];
               *w != '\0'; ++w)
            frame.push_back(static_cast<std::uint8_t>(*w));
        break;
      }
      default:
        while (frame.size() < n)
          frame.push_back(static_cast<std::uint8_t>(rng()));
        break;
    }
    frame.resize(n);
    frames.push_back(std::move(frame));
  }
  return frames;
}

TEST(DeflateGolden, RecordLikeFramesEveryLevel) {
  const auto frames = record_like_frames();
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::array<int, 3> block_types{};  // stored, fixed, dynamic
  for (const DeflateLevel level : kAllLevels) {
    for (const auto& frame : frames) {
      const auto packed = deflate_compress(frame, level);
      ASSERT_FALSE(packed.empty());
      // Frames this small fit in one block: BTYPE sits in bits 1..2.
      const int btype = (packed[0] >> 1) & 3;
      ASSERT_LT(btype, 3);
      ++block_types[static_cast<std::size_t>(btype)];
      hash = fnv1a_u64(hash, static_cast<std::uint64_t>(level));
      hash = fnv1a_u64(hash, packed.size());
      hash = fnv1a(hash, packed);
    }
  }
  for (const int count : block_types) EXPECT_GT(count, 0);
  // Computed with the seed encoder (symbol-list package-merge).
  EXPECT_EQ(hash, 0x18409bd67c85f6dfull) << std::hex << "0x" << hash;
}

}  // namespace
}  // namespace cdc::compress
