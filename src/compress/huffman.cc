#include "compress/huffman.h"

#include <algorithm>
#include <cstddef>

#include "support/check.h"

namespace cdc::compress {

namespace {

struct Leaf {
  std::uint64_t weight = 0;
  std::uint32_t symbol = 0;
};

bool weight_less(const Leaf& a, const Leaf& b) noexcept {
  return a.weight < b.weight;
}

/// Per-thread package-merge workspace. Holds capacity only: every call
/// overwrites what it reads.
struct MergeScratch {
  std::vector<Leaf> leaves;           // coded symbols, sorted by weight
  std::vector<std::uint64_t> weights;  // leaf weights, packages, level lists
  std::vector<std::uint8_t> is_leaf;   // per level: item is a leaf (1)
};

MergeScratch& merge_scratch() {
  thread_local MergeScratch scratch;
  return scratch;
}

}  // namespace

// Package-merge without symbol lists. Level `limit` is the sorted leaves;
// each level toward 1 pairs up the previous level's items into packages
// and merges them with the leaves (a leaf goes first unless the package
// is strictly lighter). The optimal code takes the first 2(n-1) items of
// the level-1 list. A package taken at level L stands for the two items
// it paired at level L+1, and because merging keeps both inputs in order,
// the items taken at every level form a prefix of that level's list. So
// the lengths follow from counting leaves in those prefixes: walking from
// level 1, a prefix of k items holding `leaves_used` leaves adds 1 to the
// `leaves_used` lightest leaves and takes 2 * (k - leaves_used) items of
// the next level. Only the leaf/package flags are kept per level.
void package_merge_lengths(std::span<const std::uint64_t> freqs, int limit,
                           std::span<std::uint8_t> lengths) {
  CDC_CHECK(limit >= 1 && limit <= 32);
  CDC_CHECK(lengths.size() == freqs.size());
  std::fill(lengths.begin(), lengths.end(), std::uint8_t{0});

  MergeScratch& scratch = merge_scratch();
  std::vector<Leaf>& leaves = scratch.leaves;
  leaves.clear();
  for (std::size_t s = 0; s < freqs.size(); ++s)
    if (freqs[s] > 0)
      leaves.push_back(Leaf{freqs[s], static_cast<std::uint32_t>(s)});

  const std::size_t n = leaves.size();
  if (n == 0) return;
  if (n == 1) {
    lengths[leaves[0].symbol] = 1;
    return;
  }
  CDC_CHECK_MSG(n <= (std::size_t{1} << limit),
                "alphabet too large for length limit");
  // The order of equal weights decides which leaves get the longer codes,
  // so the encoder's output bytes depend on this exact sort.
  std::sort(leaves.begin(), leaves.end(), weight_less);

  // Every level's list holds n leaves plus fewer than n packages. The
  // leaf and package weight arrays end in a sentinel slot.
  const std::size_t width = 2 * n;
  scratch.weights.resize(4 * width);
  scratch.is_leaf.resize(static_cast<std::size_t>(limit) * width);
  std::uint64_t* leaf_weight = scratch.weights.data();
  std::uint64_t* package_weight = leaf_weight + width;
  std::uint64_t* prev = package_weight + width;
  std::uint64_t* next = prev + width;
  const auto flags_of = [&](int level) {
    return scratch.is_leaf.data() +
           static_cast<std::size_t>(level - 1) * width;
  };

  for (std::size_t i = 0; i < n; ++i) leaf_weight[i] = leaves[i].weight;
  leaf_weight[n] = 0;
  std::copy_n(leaf_weight, n, prev);
  std::fill_n(flags_of(limit), n, std::uint8_t{1});
  std::size_t prev_size = n;
  for (int level = limit - 1; level >= 1; --level) {
    const std::size_t packages = prev_size / 2;
    for (std::size_t j = 0; j < packages; ++j)
      package_weight[j] = prev[2 * j] + prev[2 * j + 1];
    package_weight[packages] = ~std::uint64_t{0};
    // Branch-free merge: a leaf goes first unless the package is
    // strictly lighter; the sentinel package loses to every leaf.
    std::uint8_t* flags = flags_of(level);
    const std::size_t size = n + packages;
    std::size_t leaf = 0;
    std::size_t pkg = 0;
    for (std::size_t out = 0; out < size; ++out) {
      const std::uint64_t lw = leaf_weight[leaf];
      const std::uint64_t pw = package_weight[pkg];
      const bool take_leaf = (leaf < n) & !(pw < lw);
      next[out] = take_leaf ? lw : pw;
      flags[out] = take_leaf ? 1 : 0;
      leaf += take_leaf ? 1 : 0;
      pkg += take_leaf ? 0 : 1;
    }
    std::swap(prev, next);
    prev_size = size;
  }

  std::size_t take = 2 * (n - 1);
  CDC_CHECK(prev_size >= take);  // the level-1 list
  for (int level = 1; level <= limit && take > 0; ++level) {
    const std::uint8_t* flags = flags_of(level);
    std::size_t leaves_used = 0;
    for (std::size_t i = 0; i < take; ++i) leaves_used += flags[i];
    for (std::size_t i = 0; i < leaves_used; ++i) ++lengths[leaves[i].symbol];
    take = 2 * (take - leaves_used);
  }

  for (const Leaf& l : leaves)
    CDC_CHECK(lengths[l.symbol] >= 1 &&
              lengths[l.symbol] <= static_cast<std::uint8_t>(limit));
}

bool HuffmanDecoder::init(std::span<const std::uint8_t> lengths) {
  ok_ = false;
  reset();
  std::fill(std::begin(first_code_), std::end(first_code_), 0u);
  std::fill(std::begin(count_), std::end(count_), 0u);
  std::fill(std::begin(offset_), std::end(offset_), 0u);
  symbols_.clear();

  std::size_t coded = 0;
  for (const std::uint8_t len : lengths) {
    if (len == 0) continue;
    if (len > kMaxBits) return false;
    ++count_[len];
    ++coded;
  }
  if (coded == 0) return false;

  // Kraft sum check: reject oversubscribed sets; allow the degenerate
  // single-code case (DEFLATE permits a one-symbol distance alphabet).
  std::uint64_t kraft = 0;
  for (int len = 1; len <= kMaxBits; ++len)
    kraft += static_cast<std::uint64_t>(count_[len])
             << (kMaxBits - len);
  const std::uint64_t full = std::uint64_t{1} << kMaxBits;
  if (kraft > full) return false;
  if (kraft < full && coded > 1) return false;

  std::uint32_t code = 0;
  std::uint32_t offset = 0;
  for (int len = 1; len <= kMaxBits; ++len) {
    code = (code + count_[len - 1]) << 1;
    first_code_[len] = code;
    offset_[len] = offset;
    offset += count_[len];
  }

  symbols_.resize(coded);
  std::uint32_t fill[kMaxBits + 1] = {};
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const std::uint8_t len = lengths[s];
    if (len == 0) continue;
    symbols_[offset_[len] + fill[len]] = static_cast<std::uint16_t>(s);
    ++fill[len];
  }
  build_fast_table();
  ok_ = true;
  return true;
}

void HuffmanDecoder::build_fast_table() noexcept {
  fast_.fill(0);
  for (int len = 1; len <= kFastBits; ++len) {
    for (std::uint32_t j = 0; j < count_[len]; ++j) {
      // DEFLATE streams codes MSB-first but the bit reader yields bits
      // LSB-first, so the table is indexed by the reversed code,
      // replicated over every value of the don't-care high bits.
      const std::uint32_t code = first_code_[len] + j;
      std::uint32_t rev = 0;
      for (int b = 0; b < len; ++b)
        rev |= ((code >> b) & 1u) << (len - 1 - b);
      const std::uint16_t sym = symbols_[offset_[len] + j];
      const auto entry = static_cast<std::uint16_t>(
          (static_cast<std::uint32_t>(sym) << 4) | static_cast<std::uint32_t>(len));
      for (std::size_t i = rev; i < kFastSize; i += std::size_t{1} << len)
        fast_[i] = entry;
    }
  }
}

}  // namespace cdc::compress
