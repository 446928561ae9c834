// Batched DEFLATE decoder — the read-side twin of the encoder's 57-bit
// put_bits fast path (deflate.cc). A 64-bit accumulator is refilled once
// per token: after a refill the buffer holds 56..63 valid bits, enough for
// a worst-case match (15-bit length code + 5 extra + 15-bit distance code
// + 13 extra = 48 bits) or several literals, so the hot loop pays one
// bounds check per symbol instead of one per byte. Match copies go through
// overlap-aware 8-byte chunks into a slack-padded output buffer.
//
// Rejection semantics are bit-for-bit those of the seed's bit-serial
// decoder, kept as a test oracle in tests/compress/inflate_reference.cc —
// the differential battery in tests/compress/inflate_differential_test.cc
// holds the two to identical accept/reject decisions and identical output,
// so replay's trust model does not change with the fast path.

#include <algorithm>
#include <cstring>

#include "compress/deflate.h"
#include "compress/deflate_tables.h"
#include "compress/huffman.h"

namespace cdc::compress {

namespace {

namespace tb = tables;

// --- Accumulator ---------------------------------------------------------

/// Invariant: 8 * (p - base) == bits_consumed + n; bits [0, n) of acc are
/// the next stream bits, bits at and above n are either zero (at the tail)
/// or a correct lookahead of upcoming bytes (mid-stream), so refills are
/// idempotent ORs.
struct Bits {
  const std::uint8_t* base = nullptr;
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;
  std::uint64_t acc = 0;
  int n = 0;
};

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap64(w);
#endif
  return w;
}

/// Tops the accumulator up to 56..63 bits (fewer only when the stream is
/// nearly exhausted, in which case n counts exactly the real bits left).
inline void refill(Bits& b) noexcept {
  if (b.end - b.p >= 8) {
    b.acc |= load_le64(b.p) << b.n;
    b.p += (63 - b.n) >> 3;
    b.n |= 56;
    return;
  }
  while (b.n <= 56 && b.p < b.end) {
    b.acc |= static_cast<std::uint64_t>(*b.p++) << b.n;
    b.n += 8;
  }
}

/// try_read twin: refills on demand; false only when the stream itself is
/// out of bits. count <= 32.
inline bool read_bits(Bits& b, int count, std::uint32_t& out) noexcept {
  if (b.n < count) {
    refill(b);
    if (b.n < count) return false;
  }
  out = static_cast<std::uint32_t>(b.acc) &
        ((count == 32) ? ~0u : ((1u << count) - 1u));
  b.acc >>= count;
  b.n -= count;
  return true;
}

/// Decodes one Huffman symbol from the accumulator. The caller must have
/// refilled since the last token so that a -1 really means the stream ran
/// dry (mirrors HuffmanDecoder::decode over a padded BitReader): -1 on
/// truncated or invalid input.
inline int decode_one(Bits& b, const HuffmanDecoder& dec) noexcept {
  const std::uint16_t entry = dec.fast_entry(b.acc);
  if (entry != 0) {
    const int len = entry & 0xf;
    if (len > b.n) return -1;  // code runs past the end of the stream
    b.acc >>= len;
    b.n -= len;
    return entry >> 4;
  }
  int used = 0;
  const int sym = dec.decode_bits(b.acc, b.n, used);
  if (sym < 0) return -1;
  b.acc >>= used;
  b.n -= used;
  return sym;
}

// --- Output buffer -------------------------------------------------------

/// Guarantees out[wpos, wpos + need) is writable, plus 8 bytes of slack so
/// match copies can run in whole 8-byte chunks.
inline void ensure(std::vector<std::uint8_t>& out, std::size_t wpos,
                   std::size_t need) {
  const std::size_t want = wpos + need + 8;
  if (want > out.size())
    out.resize(std::max(want, out.size() + out.size() / 2 + 64));
}

/// Overlap-aware copy of `length` bytes from `distance` back. May write up
/// to 7 bytes of slack past dst + length (covered by ensure()).
inline void copy_match(std::uint8_t* dst, std::size_t distance,
                       std::size_t length) noexcept {
  const std::uint8_t* src = dst - distance;
  if (distance == 1) {
    std::memset(dst, src[0], length);
    return;
  }
  if (distance >= 8) {
    std::size_t i = 0;
    do {
      std::memcpy(dst + i, src + i, 8);
      i += 8;
    } while (i < length);
    return;
  }
  // Short overlapping distance (2..7): the pattern period is below the
  // chunk width, so chunked copies would repeat the wrong period —
  // replicate byte-wise (reads trail writes by `distance`, as RFC 1951
  // overlap semantics require).
  for (std::size_t i = 0; i < length; ++i) dst[i] = src[i];
}

// --- Decoder scratch -----------------------------------------------------

/// Per-thread decode workspace: Huffman tables and header length buffers,
/// recycled across calls so steady-state decode does not allocate. Holds
/// capacity only, never data (dist_usable guards a stale table after a
/// failed init).
struct InflateScratch {
  HuffmanDecoder lit;
  HuffmanDecoder dist;
  HuffmanDecoder cl;
  std::vector<std::uint8_t> cl_lengths;
  std::vector<std::uint8_t> lengths;
};

InflateScratch& inflate_scratch() {
  thread_local InflateScratch scratch;
  return scratch;
}

/// Parses a dynamic-table header (§3.2.7) into scratch.lit / scratch.dist.
/// dist_usable is false for the legal all-zero distance alphabet, whose
/// decoder must never be consulted (its tables may be stale).
bool read_dynamic_tables(Bits& b, InflateScratch& s, bool& dist_usable) {
  std::uint32_t hlit = 0;
  std::uint32_t hdist = 0;
  std::uint32_t hclen = 0;
  if (!read_bits(b, 5, hlit) || !read_bits(b, 5, hdist) ||
      !read_bits(b, 4, hclen))
    return false;
  const std::size_t nlit = hlit + 257;
  const std::size_t ndist = hdist + 1;
  const std::size_t ncl = hclen + 4;
  if (nlit > tb::kNumLitLen || ndist > 32) return false;

  s.cl_lengths.assign(tb::kNumCodeLen, 0);
  for (std::size_t i = 0; i < ncl; ++i) {
    std::uint32_t v = 0;
    if (!read_bits(b, 3, v)) return false;
    s.cl_lengths[tb::kCodeLenOrder[i]] = static_cast<std::uint8_t>(v);
  }
  if (!s.cl.init(s.cl_lengths)) return false;

  std::vector<std::uint8_t>& lengths = s.lengths;
  lengths.clear();
  lengths.reserve(nlit + ndist);
  while (lengths.size() < nlit + ndist) {
    // Code-length codes are <= 7 bits with <= 7 extra bits.
    if (b.n < 14) refill(b);
    const int sym = decode_one(b, s.cl);
    if (sym < 0) return false;
    if (sym < 16) {
      lengths.push_back(static_cast<std::uint8_t>(sym));
    } else if (sym == 16) {
      std::uint32_t rep = 0;
      if (!read_bits(b, 2, rep) || lengths.empty()) return false;
      const std::uint8_t prev = lengths.back();
      for (std::uint32_t i = 0; i < rep + 3; ++i) lengths.push_back(prev);
    } else if (sym == 17) {
      std::uint32_t rep = 0;
      if (!read_bits(b, 3, rep)) return false;
      for (std::uint32_t i = 0; i < rep + 3; ++i) lengths.push_back(0);
    } else {
      std::uint32_t rep = 0;
      if (!read_bits(b, 7, rep)) return false;
      for (std::uint32_t i = 0; i < rep + 11; ++i) lengths.push_back(0);
    }
  }
  if (lengths.size() != nlit + ndist) return false;

  const std::span<const std::uint8_t> all{lengths};
  if (!s.lit.init(all.subspan(0, nlit))) return false;
  // An all-zero distance alphabet is legal when the block has no matches;
  // init() rejects it, so tolerate that case with an unusable decoder.
  const auto dist_lengths = all.subspan(nlit, ndist);
  dist_usable = s.dist.init(dist_lengths);
  if (!dist_usable) {
    const bool all_zero =
        std::all_of(dist_lengths.begin(), dist_lengths.end(),
                    [](std::uint8_t l) { return l == 0; });
    if (!all_zero) return false;
  }
  return true;
}

/// Fixed-block decoders (§3.2.6), built once per thread.
const HuffmanDecoder& fixed_lit_decoder() {
  thread_local const HuffmanDecoder dec{tb::kFixedLitLenLengths};
  return dec;
}

const HuffmanDecoder& fixed_dist_decoder() {
  thread_local const HuffmanDecoder dec{tb::kFixedDistLengths};
  return dec;
}

/// Decodes one block body. `wpos` tracks the write position in `out`,
/// whose size is capacity (ensure() keeps 8 bytes of slack beyond wpos).
bool inflate_block_body(Bits& b, const HuffmanDecoder& lit_dec,
                        const HuffmanDecoder& dist_dec, bool dist_usable,
                        std::vector<std::uint8_t>& out, std::size_t& wpos) {
  for (;;) {
    refill(b);
    int sym = decode_one(b, lit_dec);
    for (;;) {
      if (sym < 0) return false;
      if (sym >= 256) break;
      ensure(out, wpos, 1);
      out[wpos++] = static_cast<std::uint8_t>(sym);
      // Batched literal run: a litlen code is <= 15 bits, so keep
      // decoding from the same refill while the accumulator allows.
      if (b.n < HuffmanDecoder::kMaxBits) break;
      sym = decode_one(b, lit_dec);
    }
    if (sym < 256) continue;  // accumulator low, refill and resume
    if (sym == tb::kEndOfBlock) return true;

    const int lc = sym - 257;
    if (lc >= static_cast<int>(tb::kLengthCodes.size())) return false;
    const tb::LengthCode& le =
        tb::kLengthCodes[static_cast<std::size_t>(lc)];
    // One refill covers length extra + distance code + distance extra
    // (5 + 15 + 13 = 33 bits <= the 56 a refill guarantees mid-stream).
    refill(b);
    std::uint32_t extra = 0;
    if (le.extra > 0 && !read_bits(b, le.extra, extra)) return false;
    const std::size_t length = le.base + extra;

    if (!dist_usable) return false;  // match in a matchless block
    const int dsym = decode_one(b, dist_dec);
    if (dsym < 0 || dsym >= static_cast<int>(tb::kDistCodes.size()))
      return false;
    const tb::LengthCode& de =
        tb::kDistCodes[static_cast<std::size_t>(dsym)];
    std::uint32_t dextra = 0;
    if (de.extra > 0 && !read_bits(b, de.extra, dextra)) return false;
    const std::size_t distance = de.base + dextra;
    if (distance == 0 || distance > wpos) return false;

    ensure(out, wpos, length);
    copy_match(out.data() + wpos, distance, length);
    wpos += length;
  }
}

}  // namespace

std::optional<std::vector<std::uint8_t>> deflate_decompress(
    std::span<const std::uint8_t> compressed,
    std::vector<std::uint8_t> reuse) {
  Bits b;
  b.base = compressed.data();
  b.p = b.base;
  b.end = b.base + compressed.size();

  std::vector<std::uint8_t> out = std::move(reuse);
  out.clear();
  std::size_t wpos = 0;

  InflateScratch& scratch = inflate_scratch();
  for (;;) {
    std::uint32_t bfinal = 0;
    std::uint32_t btype = 0;
    if (!read_bits(b, 1, bfinal) || !read_bits(b, 2, btype))
      return std::nullopt;
    if (btype == 0) {
      // Stored block: drop to the byte boundary and leave the
      // accumulator, so LEN/NLEN and the payload read straight from the
      // input buffer.
      b.acc >>= b.n & 7;
      b.n -= b.n & 7;
      const std::uint8_t* at = b.p - (b.n >> 3);
      b.acc = 0;
      b.n = 0;
      if (b.end - at < 4) return std::nullopt;
      const std::uint16_t len =
          static_cast<std::uint16_t>(at[0] | (at[1] << 8));
      const std::uint16_t nlen =
          static_cast<std::uint16_t>(at[2] | (at[3] << 8));
      if (static_cast<std::uint16_t>(~len) != nlen) return std::nullopt;
      at += 4;
      if (b.end - at < len) return std::nullopt;
      ensure(out, wpos, len);
      std::memcpy(out.data() + wpos, at, len);
      wpos += len;
      b.p = at + len;
    } else if (btype == 1) {
      if (!inflate_block_body(b, fixed_lit_decoder(), fixed_dist_decoder(),
                              /*dist_usable=*/true, out, wpos))
        return std::nullopt;
    } else if (btype == 2) {
      bool dist_usable = false;
      if (!read_dynamic_tables(b, scratch, dist_usable))
        return std::nullopt;
      if (!inflate_block_body(b, scratch.lit, scratch.dist, dist_usable,
                              out, wpos))
        return std::nullopt;
    } else {
      return std::nullopt;
    }
    if (bfinal) {
      out.resize(wpos);
      return out;
    }
  }
}

}  // namespace cdc::compress
