#include "inflate_reference.h"

#include <algorithm>

#include "compress/deflate_tables.h"
#include "compress/huffman.h"
#include "support/bitstream.h"

namespace cdc::compress::reference {

namespace {

using support::BitReader;
using tables::kCodeLenOrder;
using tables::kDistCodes;
using tables::kEndOfBlock;
using tables::kFixedDistLengths;
using tables::kFixedLitLenLengths;
using tables::kLengthCodes;
using tables::kNumCodeLen;
using tables::kNumLitLen;
using tables::LengthCode;

bool inflate_block_body(BitReader& br, HuffmanDecoder& lit_dec,
                        HuffmanDecoder& dist_dec,
                        std::vector<std::uint8_t>& out) {
  for (;;) {
    const int sym = lit_dec.decode(br);
    if (sym < 0) return false;
    if (sym < 256) {
      out.push_back(static_cast<std::uint8_t>(sym));
      continue;
    }
    if (sym == kEndOfBlock) return true;
    const int lc = sym - 257;
    if (lc >= static_cast<int>(kLengthCodes.size())) return false;
    const LengthCode& le = kLengthCodes[static_cast<std::size_t>(lc)];
    std::uint32_t extra = 0;
    if (le.extra > 0 && !br.try_read(le.extra, extra)) return false;
    const std::size_t length = le.base + extra;

    const int dsym = dist_dec.decode(br);
    if (dsym < 0 || dsym >= static_cast<int>(kDistCodes.size())) return false;
    const LengthCode& de = kDistCodes[static_cast<std::size_t>(dsym)];
    std::uint32_t dextra = 0;
    if (de.extra > 0 && !br.try_read(de.extra, dextra)) return false;
    const std::size_t distance = de.base + dextra;
    if (distance == 0 || distance > out.size()) return false;

    const std::size_t start = out.size() - distance;
    for (std::size_t i = 0; i < length; ++i)
      out.push_back(out[start + i]);
  }
}

bool read_dynamic_tables(BitReader& br, HuffmanDecoder& lit_dec,
                         HuffmanDecoder& dist_dec) {
  std::uint32_t hlit = 0;
  std::uint32_t hdist = 0;
  std::uint32_t hclen = 0;
  if (!br.try_read(5, hlit) || !br.try_read(5, hdist) ||
      !br.try_read(4, hclen))
    return false;
  const std::size_t nlit = hlit + 257;
  const std::size_t ndist = hdist + 1;
  const std::size_t ncl = hclen + 4;
  if (nlit > kNumLitLen || ndist > 32) return false;

  std::vector<std::uint8_t> cl_lengths(kNumCodeLen, 0);
  for (std::size_t i = 0; i < ncl; ++i) {
    std::uint32_t v = 0;
    if (!br.try_read(3, v)) return false;
    cl_lengths[kCodeLenOrder[i]] = static_cast<std::uint8_t>(v);
  }
  HuffmanDecoder cl_dec;
  if (!cl_dec.init(cl_lengths)) return false;

  std::vector<std::uint8_t> lengths;
  lengths.reserve(nlit + ndist);
  while (lengths.size() < nlit + ndist) {
    const int sym = cl_dec.decode(br);
    if (sym < 0) return false;
    if (sym < 16) {
      lengths.push_back(static_cast<std::uint8_t>(sym));
    } else if (sym == 16) {
      std::uint32_t rep = 0;
      if (!br.try_read(2, rep) || lengths.empty()) return false;
      const std::uint8_t prev = lengths.back();
      for (std::uint32_t i = 0; i < rep + 3; ++i) lengths.push_back(prev);
    } else if (sym == 17) {
      std::uint32_t rep = 0;
      if (!br.try_read(3, rep)) return false;
      for (std::uint32_t i = 0; i < rep + 3; ++i) lengths.push_back(0);
    } else {
      std::uint32_t rep = 0;
      if (!br.try_read(7, rep)) return false;
      for (std::uint32_t i = 0; i < rep + 11; ++i) lengths.push_back(0);
    }
  }
  if (lengths.size() != nlit + ndist) return false;

  const std::span<const std::uint8_t> all{lengths};
  if (!lit_dec.init(all.subspan(0, nlit))) return false;
  // An all-zero distance alphabet is legal when the block has no matches;
  // init() rejects it, so tolerate that case with an unusable decoder.
  const auto dist_lengths = all.subspan(nlit, ndist);
  if (!dist_dec.init(dist_lengths)) {
    const bool all_zero =
        std::all_of(dist_lengths.begin(), dist_lengths.end(),
                    [](std::uint8_t l) { return l == 0; });
    if (!all_zero) return false;
  }
  return true;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> deflate_decompress(
    std::span<const std::uint8_t> compressed) {
  BitReader br(compressed);
  std::vector<std::uint8_t> out;
  for (;;) {
    std::uint32_t bfinal = 0;
    std::uint32_t btype = 0;
    if (!br.try_read_bit(bfinal) || !br.try_read(2, btype))
      return std::nullopt;
    if (btype == 0) {
      std::span<const std::uint8_t> header;
      if (!br.try_read_aligned_bytes(4, header)) return std::nullopt;
      const std::uint16_t len =
          static_cast<std::uint16_t>(header[0] | (header[1] << 8));
      const std::uint16_t nlen =
          static_cast<std::uint16_t>(header[2] | (header[3] << 8));
      if (static_cast<std::uint16_t>(~len) != nlen) return std::nullopt;
      std::span<const std::uint8_t> raw;
      if (!br.try_read_aligned_bytes(len, raw)) return std::nullopt;
      out.insert(out.end(), raw.begin(), raw.end());
    } else if (btype == 1) {
      HuffmanDecoder lit_dec(kFixedLitLenLengths);
      HuffmanDecoder dist_dec(kFixedDistLengths);
      if (!inflate_block_body(br, lit_dec, dist_dec, out))
        return std::nullopt;
    } else if (btype == 2) {
      HuffmanDecoder lit_dec;
      HuffmanDecoder dist_dec;
      if (!read_dynamic_tables(br, lit_dec, dist_dec)) return std::nullopt;
      if (!inflate_block_body(br, lit_dec, dist_dec, out))
        return std::nullopt;
    } else {
      return std::nullopt;
    }
    if (bfinal) return out;
  }
}

}  // namespace cdc::compress::reference
