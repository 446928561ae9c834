// The seed's package-merge: every package carries the list of leaf
// symbols it contains, and code lengths are read off by counting symbol
// occurrences in the first 2(n-1) items of the level-1 list. Quadratic in
// copies and one heap allocation per package, so the library replaced it
// with the flag-based walk in huffman.cc; kept here as the oracle the
// differential test checks that walk against, length for length.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "support/check.h"

namespace cdc::compress::reference {

inline std::vector<std::uint8_t> package_merge_lengths(
    std::span<const std::uint64_t> freqs, int limit) {
  struct Package {
    std::uint64_t weight = 0;
    std::vector<std::uint16_t> symbols;
  };
  const auto weight_less = [](const Package& a, const Package& b) {
    return a.weight < b.weight;
  };

  CDC_CHECK(limit >= 1 && limit <= 32);
  std::vector<std::uint8_t> lengths(freqs.size(), 0);

  std::vector<std::uint16_t> active;
  for (std::size_t s = 0; s < freqs.size(); ++s)
    if (freqs[s] > 0) active.push_back(static_cast<std::uint16_t>(s));

  if (active.empty()) return lengths;
  if (active.size() == 1) {
    lengths[active[0]] = 1;
    return lengths;
  }
  CDC_CHECK(active.size() <= (std::size_t{1} << limit));

  std::vector<Package> leaves;
  leaves.reserve(active.size());
  for (const std::uint16_t s : active)
    leaves.push_back(Package{freqs[s], {s}});
  std::sort(leaves.begin(), leaves.end(), weight_less);

  // Level `limit` starts with the bare leaves; moving toward level 1 we
  // package pairs and merge fresh leaves back in.
  std::vector<Package> prev = leaves;
  for (int level = limit - 1; level >= 1; --level) {
    std::vector<Package> packaged;
    packaged.reserve(prev.size() / 2);
    for (std::size_t i = 0; i + 1 < prev.size(); i += 2) {
      Package merged;
      merged.weight = prev[i].weight + prev[i + 1].weight;
      merged.symbols = prev[i].symbols;
      merged.symbols.insert(merged.symbols.end(), prev[i + 1].symbols.begin(),
                            prev[i + 1].symbols.end());
      packaged.push_back(std::move(merged));
    }
    std::vector<Package> next;
    next.reserve(leaves.size() + packaged.size());
    std::merge(leaves.begin(), leaves.end(),
               std::make_move_iterator(packaged.begin()),
               std::make_move_iterator(packaged.end()),
               std::back_inserter(next), weight_less);
    prev = std::move(next);
  }

  // The first 2(n-1) packages of the level-1 list; every occurrence of a
  // symbol adds one to its code length.
  const std::size_t take = 2 * (active.size() - 1);
  CDC_CHECK(prev.size() >= take);
  for (std::size_t i = 0; i < take; ++i)
    for (const std::uint16_t s : prev[i].symbols) ++lengths[s];
  return lengths;
}

}  // namespace cdc::compress::reference
