// The seed's bit-serial DEFLATE decoder: one HuffmanDecoder::decode per
// symbol through support::BitReader, byte-at-a-time match copies. Slow and
// obviously correct, so it is the oracle the differential decode battery
// (inflate_differential_test.cc) checks the batched decoder against:
// identical bytes on accept, identical rejection on truncated or corrupt
// streams.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace cdc::compress::reference {

/// Decompresses a raw DEFLATE stream; std::nullopt on malformed input.
std::optional<std::vector<std::uint8_t>> deflate_decompress(
    std::span<const std::uint8_t> compressed);

}  // namespace cdc::compress::reference
