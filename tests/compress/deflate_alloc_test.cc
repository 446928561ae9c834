// Steady-state allocation count of the DEFLATE encoder on record-sized
// frames. deflate_compress keeps its LZ77 workspace, token buffer, block
// plan and package-merge lists in per-thread scratch, and the caller
// donates the output buffer back through `reuse`; after one warm-up pass
// nothing on the calling thread may touch the heap.
//
// This binary replaces the global operator new to count allocations. The
// counter only runs on the thread that armed it, and the replacement lives
// in its own test executable so no other suite runs under it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "compress/deflate.h"
#include "support/rng.h"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

}  // namespace

// Out of line, like the deletes below: once GCC 12 inlines a replacement
// into a caller it pairs the inlined malloc or free with the operator new
// or delete call on the other side and reports -Wmismatched-new-delete,
// although both replacements use malloc/free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cdc::compress {
namespace {

/// Allocations made by `fn` on the calling thread.
template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  t_allocations = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations;
}

/// 64 frames of 64 B..1 KiB: varint-heavy near-zero bytes (dynamic and
/// fixed blocks) and random bytes (stored blocks).
std::vector<std::vector<std::uint8_t>> small_frames() {
  support::Xoshiro256 rng(77);
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> frame(64 + rng.bounded(1024 - 64 + 1));
    for (auto& b : frame)
      b = i % 8 == 7 ? static_cast<std::uint8_t>(rng())
          : rng.uniform() < 0.85 ? 0
                                 : static_cast<std::uint8_t>(rng.bounded(6));
    frames.push_back(std::move(frame));
  }
  return frames;
}

TEST(DeflateAllocation, CounterSeesAllocationsOnThisThread) {
  const std::size_t count = count_allocations([] {
    std::vector<std::uint8_t> v(100);
    EXPECT_EQ(v.size(), 100u);
  });
  EXPECT_EQ(count, 1u);
}

TEST(DeflateAllocation, SmallFramesAreAllocationFreeAfterWarmUp) {
  const auto frames = small_frames();
  for (const DeflateLevel level :
       {DeflateLevel::kStored, DeflateLevel::kFast, DeflateLevel::kDefault,
        DeflateLevel::kBest}) {
    std::vector<std::uint8_t> out;
    for (const auto& frame : frames)
      out = deflate_compress(frame, level, std::move(out));

    const std::size_t allocations = count_allocations([&] {
      for (int i = 0; i < 1000; ++i)
        out = deflate_compress(frames[static_cast<std::size_t>(i) % 64],
                               level, std::move(out));
    });
    EXPECT_EQ(allocations, 0u) << "level " << to_string(level);
    EXPECT_EQ(out, deflate_compress(frames[999 % 64], level))
        << "level " << to_string(level);
  }
}

TEST(DeflateAllocation, GzipSmallFramesAreAllocationFreeAfterWarmUp) {
  const auto frames = small_frames();
  std::vector<std::uint8_t> out;
  for (const auto& frame : frames)
    out = gzip_compress(frame, DeflateLevel::kDefault, std::move(out));

  const std::size_t allocations = count_allocations([&] {
    for (int i = 0; i < 1000; ++i)
      out = gzip_compress(frames[static_cast<std::size_t>(i) % 64],
                          DeflateLevel::kDefault, std::move(out));
  });
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace cdc::compress
