#include "compress/deflate.h"

#include <algorithm>
#include <array>

#include "compress/crc32.h"
#include "compress/deflate_tables.h"
#include "compress/huffman.h"
#include "support/bitstream.h"
#include "support/check.h"

namespace cdc::compress {

namespace {

using support::BitWriter;

using tables::kCodeLenOrder;
using tables::kDistCodes;
using tables::kEndOfBlock;
using tables::kLengthCodes;
using tables::kNumCodeLen;
using tables::kNumDist;
using tables::kNumLitLen;
using tables::LengthCode;

constexpr int length_to_code_scan(int length) noexcept {
  for (int c = 28; c >= 0; --c)
    if (length >= kLengthCodes[static_cast<std::size_t>(c)].base) return c;
  return 0;
}

constexpr int dist_to_code_scan(int distance) noexcept {
  for (int c = 29; c >= 0; --c)
    if (distance >= kDistCodes[static_cast<std::size_t>(c)].base) return c;
  return 0;
}

// --- Fast symbol maps ----------------------------------------------------
// Direct-indexed replacements for the reverse linear scans above; built at
// compile time from the same alphabet tables they replace.

constexpr std::array<std::uint8_t, kMaxMatch + 1> make_length_to_code() {
  std::array<std::uint8_t, kMaxMatch + 1> t{};
  for (int len = kMinMatch; len <= kMaxMatch; ++len)
    t[static_cast<std::size_t>(len)] =
        static_cast<std::uint8_t>(length_to_code_scan(len));
  return t;
}

inline constexpr auto kLengthToCode = make_length_to_code();

// zlib-style split table: distances 1..256 index the low half directly;
// 257..32768 index the high half by (distance - 1) >> 7, which is exact
// because every distance-code base above 256 is 1 mod 128.
constexpr std::array<std::uint8_t, 512> make_dist_to_code() {
  std::array<std::uint8_t, 512> t{};
  for (int d = 1; d <= kWindowSize; ++d) {
    const auto code = static_cast<std::uint8_t>(dist_to_code_scan(d));
    if (d <= 256) {
      t[static_cast<std::size_t>(d - 1)] = code;
    } else {
      t[static_cast<std::size_t>(256 + ((d - 1) >> 7))] = code;
    }
  }
  return t;
}

inline constexpr auto kDistToCode = make_dist_to_code();

int length_code(int length) noexcept {
  return kLengthToCode[static_cast<std::size_t>(length)];
}

int dist_code(int distance) noexcept {
  return distance <= 256
             ? kDistToCode[static_cast<std::size_t>(distance - 1)]
             : kDistToCode[static_cast<std::size_t>(256 +
                                                    ((distance - 1) >> 7))];
}

// Fixed Huffman code lengths (§3.2.6).
using tables::kFixedDistLengths;
using tables::kFixedLitLenLengths;

// --- Encoder ------------------------------------------------------------

/// One code-length alphabet symbol (0..18) with the repeat payload of
/// 16/17/18.
struct ClToken {
  std::uint8_t symbol;
  std::uint8_t extra;
};

/// Extra payload bits of code-length symbols 16, 17 and 18 (§3.2.7).
constexpr std::array<int, 3> kClRepeatBits = {2, 3, 7};

int cl_extra_bits(std::uint8_t symbol) noexcept {
  return symbol >= 16 ? kClRepeatBits[symbol - 16u] : 0;
}

/// Run-length encodes a concatenated code-length sequence into the
/// code-length alphabet. Every token covers at least one length, so `out`
/// needs lens.size() slots; returns the token count.
std::size_t rle_code_lengths(std::span<const std::uint8_t> lens,
                             std::span<ClToken> out) {
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < lens.size()) {
    const std::uint8_t len = lens[i];
    std::size_t run = 1;
    while (i + run < lens.size() && lens[i + run] == len) ++run;
    if (len == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t take = std::min<std::size_t>(left, 138);
        out[count++] = {18, static_cast<std::uint8_t>(take - 11)};
        left -= take;
      }
      if (left >= 3) {
        out[count++] = {17, static_cast<std::uint8_t>(left - 3)};
        left = 0;
      }
      while (left-- > 0) out[count++] = {0, 0};
    } else {
      out[count++] = {len, 0};
      std::size_t left = run - 1;
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 6);
        out[count++] = {16, static_cast<std::uint8_t>(take - 3)};
        left -= take;
      }
      while (left-- > 0) out[count++] = {len, 0};
    }
    i += run;
  }
  return count;
}

/// The dynamic-block plan for one token block and its dynamic/fixed bit
/// costs. Fixed-size storage, so a plan held in the per-thread scratch is
/// rebuilt without allocating.
struct BlockPlan {
  // Literal/length code lengths followed by distance code lengths: the
  // concatenated sequence the header's code-length RLE runs over.
  std::array<std::uint8_t, kNumLitLen + kNumDist> lengths{};
  std::size_t nlit = 0;   // HLIT + 257
  std::size_t ndist = 0;  // HDIST + 1
  std::array<ClToken, kNumLitLen + kNumDist> cl_tokens{};
  std::size_t num_cl_tokens = 0;
  std::array<std::uint8_t, kNumCodeLen> cl_lengths{};  // limit 7
  std::size_t ncl = 0;                                  // HCLEN + 4
  std::size_t header_bits = 0;
  std::size_t body_bits_dynamic = 0;
  std::size_t body_bits_fixed = 0;

  std::span<const std::uint8_t> litlen_lengths() const {
    return {lengths.data(), nlit};
  }
  std::span<const std::uint8_t> dist_lengths() const {
    return {lengths.data() + nlit, ndist};
  }
  std::span<const ClToken> tokens() const {
    return {cl_tokens.data(), num_cl_tokens};
  }
};

/// Fills `plan` for one token block. Cost: one pass over the tokens plus
/// three package-merges, each O(limit * coded symbols).
void plan_block(std::span<const Lz77Token> tokens, BlockPlan& plan) {
  std::array<std::uint64_t, kNumLitLen> lit_freq{};
  std::array<std::uint64_t, kNumDist> dist_freq{};
  std::size_t extra_bits = 0;
  for (const Lz77Token& t : tokens) {
    if (t.is_literal()) {
      ++lit_freq[t.literal];
    } else {
      const int lc = length_code(t.length);
      const int dc = dist_code(t.distance);
      ++lit_freq[static_cast<std::size_t>(257 + lc)];
      ++dist_freq[static_cast<std::size_t>(dc)];
      extra_bits += kLengthCodes[static_cast<std::size_t>(lc)].extra;
      extra_bits += kDistCodes[static_cast<std::size_t>(dc)].extra;
    }
  }
  ++lit_freq[kEndOfBlock];
  // A distance alphabet must describe at least one code.
  if (std::all_of(dist_freq.begin(), dist_freq.end(),
                  [](std::uint64_t f) { return f == 0; }))
    dist_freq[0] = 1;

  const std::span<std::uint8_t> lit_lengths{plan.lengths.data(), kNumLitLen};
  std::array<std::uint8_t, kNumDist> dist_lengths{};
  package_merge_lengths(lit_freq, 15, lit_lengths);
  package_merge_lengths(dist_freq, 15, dist_lengths);

  plan.body_bits_dynamic = extra_bits;
  plan.body_bits_fixed = extra_bits;
  for (std::size_t s = 0; s < kNumLitLen; ++s) {
    plan.body_bits_dynamic += lit_freq[s] * lit_lengths[s];
    plan.body_bits_fixed += lit_freq[s] * kFixedLitLenLengths[s];
  }
  for (std::size_t s = 0; s < kNumDist; ++s) {
    plan.body_bits_dynamic += dist_freq[s] * dist_lengths[s];
    plan.body_bits_fixed += dist_freq[s] * kFixedDistLengths[s];
  }

  // Trim trailing zero lengths but keep the §3.2.7 minima, then place the
  // distance lengths right after the literal/length ones.
  plan.nlit = kNumLitLen;
  while (plan.nlit > 257 && lit_lengths[plan.nlit - 1] == 0) --plan.nlit;
  plan.ndist = kNumDist;
  while (plan.ndist > 1 && dist_lengths[plan.ndist - 1] == 0) --plan.ndist;
  std::copy_n(dist_lengths.begin(), plan.ndist,
              plan.lengths.begin() + static_cast<std::ptrdiff_t>(plan.nlit));
  plan.num_cl_tokens = rle_code_lengths(
      {plan.lengths.data(), plan.nlit + plan.ndist}, plan.cl_tokens);

  std::array<std::uint64_t, kNumCodeLen> cl_freq{};
  for (const ClToken& t : plan.tokens()) ++cl_freq[t.symbol];
  package_merge_lengths(cl_freq, 7, plan.cl_lengths);

  plan.ncl = kNumCodeLen;
  while (plan.ncl > 4 && plan.cl_lengths[kCodeLenOrder[plan.ncl - 1]] == 0)
    --plan.ncl;

  plan.header_bits = 5 + 5 + 4 + 3 * plan.ncl;
  for (const ClToken& t : plan.tokens())
    plan.header_bits += plan.cl_lengths[t.symbol] + cl_extra_bits(t.symbol);
}

/// A Huffman code ready for BitWriter::put_bits: bit-reversed (DEFLATE
/// emits codes MSB-first, the writer packs LSB-first) with its length.
struct EmitCode {
  std::uint16_t bits = 0;
  std::uint8_t len = 0;
};

constexpr std::array<std::uint8_t, 256> make_reverse_byte() {
  std::array<std::uint8_t, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    unsigned r = 0;
    for (int i = 0; i < 8; ++i) r |= ((b >> i) & 1u) << (7 - i);
    t[b] = static_cast<std::uint8_t>(r);
  }
  return t;
}

inline constexpr auto kReverseByte = make_reverse_byte();

/// The low `length` (1..16) bits of `code`, bit-reversed.
constexpr std::uint16_t reverse_code(std::uint32_t code, int length) noexcept {
  const std::uint32_t reversed16 =
      (static_cast<std::uint32_t>(kReverseByte[code & 0xffu]) << 8) |
      kReverseByte[(code >> 8) & 0xffu];
  return static_cast<std::uint16_t>(reversed16 >> (16 - length));
}

/// Canonical codes for `lengths`, assigned in place and pre-reversed.
template <std::size_t N>
constexpr std::array<EmitCode, N> emit_codes(
    std::span<const std::uint8_t> lengths) {
  auto next = canonical_first_codes(lengths);
  std::array<EmitCode, N> out{};
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const std::uint8_t len = lengths[s];
    if (len == 0) continue;
    out[s] = {reverse_code(next[len]++, len), len};
  }
  return out;
}

// The fixed-Huffman (§3.2.6) emit tables, built at compile time.
inline constexpr auto kFixedLitEmit =
    emit_codes<kNumLitLen>(kFixedLitLenLengths);
inline constexpr auto kFixedDistEmit = emit_codes<32>(kFixedDistLengths);

void emit_tokens(BitWriter& bw, std::span<const Lz77Token> tokens,
                 const std::array<EmitCode, kNumLitLen>& lit,
                 const std::array<EmitCode, 32>& dist) {
  for (const Lz77Token& t : tokens) {
    if (t.is_literal()) {
      const EmitCode& e = lit[t.literal];
      bw.put_bits(e.bits, e.len);
      continue;
    }
    // Pack length code + length extra + distance code + distance extra
    // into a single accumulator write (at most 15+5+15+13 = 48 bits).
    const int lc = length_code(t.length);
    const LengthCode& le = kLengthCodes[static_cast<std::size_t>(lc)];
    const EmitCode& el = lit[static_cast<std::size_t>(257 + lc)];
    std::uint64_t bits = el.bits;
    int count = el.len;
    bits |= static_cast<std::uint64_t>(t.length - le.base) << count;
    count += le.extra;

    const int dc = dist_code(t.distance);
    const LengthCode& de = kDistCodes[static_cast<std::size_t>(dc)];
    const EmitCode& ed = dist[static_cast<std::size_t>(dc)];
    bits |= static_cast<std::uint64_t>(ed.bits) << count;
    count += ed.len;
    bits |= static_cast<std::uint64_t>(t.distance - de.base) << count;
    count += de.extra;
    bw.put_bits(bits, count);
  }
  bw.put_bits(lit[kEndOfBlock].bits, lit[kEndOfBlock].len);
}

void emit_stored_block(BitWriter& bw, std::span<const std::uint8_t> raw,
                       bool final_block) {
  std::size_t off = 0;
  do {
    const std::size_t take = std::min<std::size_t>(raw.size() - off, 65535);
    const bool last_piece = off + take == raw.size();
    bw.write(final_block && last_piece ? 1u : 0u, 1);
    bw.write(0u, 2);  // BTYPE = 00
    bw.align_to_byte();
    const auto len = static_cast<std::uint16_t>(take);
    bw.append_byte(static_cast<std::uint8_t>(len));
    bw.append_byte(static_cast<std::uint8_t>(len >> 8));
    const std::uint16_t nlen = ~len;
    bw.append_byte(static_cast<std::uint8_t>(nlen));
    bw.append_byte(static_cast<std::uint8_t>(nlen >> 8));
    bw.append_bytes(raw.subspan(off, take));
    off += take;
  } while (off < raw.size());
}

void emit_dynamic_header(BitWriter& bw, const BlockPlan& plan) {
  bw.write(static_cast<std::uint32_t>(plan.nlit - 257), 5);
  bw.write(static_cast<std::uint32_t>(plan.ndist - 1), 5);
  bw.write(static_cast<std::uint32_t>(plan.ncl - 4), 4);
  for (std::size_t i = 0; i < plan.ncl; ++i)
    bw.write(plan.cl_lengths[kCodeLenOrder[i]], 3);

  const auto cl_emit = emit_codes<kNumCodeLen>(plan.cl_lengths);
  for (const ClToken& t : plan.tokens()) {
    const EmitCode& e = cl_emit[t.symbol];
    bw.put_bits(e.bits | static_cast<std::uint64_t>(t.extra) << e.len,
                e.len + cl_extra_bits(t.symbol));
  }
}

/// Per-thread codec scratch: the LZ77 chain workspace, the token buffer
/// and the block plan, all recycled across calls so steady-state
/// compression does not allocate. Holds capacity only — never data that
/// could leak between inputs (see the determinism contract in deflate.h).
struct DeflateScratch {
  Lz77Workspace workspace;
  std::vector<Lz77Token> tokens;
  BlockPlan plan;
};

DeflateScratch& deflate_scratch() {
  thread_local DeflateScratch scratch;
  return scratch;
}

/// Emits the complete DEFLATE stream for `input` into `bw` (which may
/// already hold container header bytes, e.g. gzip's).
void deflate_into(BitWriter& bw, std::span<const std::uint8_t> input,
                  DeflateLevel level) {
  if (input.empty() || level == DeflateLevel::kStored) {
    // A single (possibly empty) run of stored blocks.
    emit_stored_block(bw, input, /*final_block=*/true);
    return;
  }

  DeflateScratch& scratch = deflate_scratch();
  std::vector<Lz77Token>& tokens = scratch.tokens;
  lz77_tokenize_into(scratch.workspace, input, lz77_params_for(level),
                     tokens);

  BlockPlan& plan = scratch.plan;

  // Chunk the token stream into blocks so that each block gets Huffman
  // tables fit to its local statistics.
  constexpr std::size_t kTokensPerBlock = 1 << 16;
  std::size_t tok_begin = 0;
  std::size_t byte_begin = 0;
  while (tok_begin < tokens.size() || byte_begin == 0) {
    const std::size_t tok_end =
        std::min(tokens.size(), tok_begin + kTokensPerBlock);
    std::size_t byte_end = byte_begin;
    for (std::size_t i = tok_begin; i < tok_end; ++i)
      byte_end += tokens[i].is_literal() ? 1 : tokens[i].length;
    const bool final_block = tok_end == tokens.size();
    const std::span<const Lz77Token> block{tokens.data() + tok_begin,
                                           tok_end - tok_begin};

    plan_block(block, plan);
    const std::size_t dynamic_bits =
        3 + plan.header_bits + plan.body_bits_dynamic;
    const std::size_t fixed_bits = 3 + plan.body_bits_fixed;
    const std::size_t stored_bits =
        3 + 7 + 32 + 8 * (byte_end - byte_begin);

    if (stored_bits < dynamic_bits && stored_bits < fixed_bits) {
      emit_stored_block(bw, input.subspan(byte_begin, byte_end - byte_begin),
                        final_block);
    } else if (fixed_bits <= dynamic_bits) {
      bw.write(final_block ? 1u : 0u, 1);
      bw.write(1u, 2);  // BTYPE = 01 fixed
      emit_tokens(bw, block, kFixedLitEmit, kFixedDistEmit);
    } else {
      bw.write(final_block ? 1u : 0u, 1);
      bw.write(2u, 2);  // BTYPE = 10 dynamic
      emit_dynamic_header(bw, plan);
      emit_tokens(bw, block, emit_codes<kNumLitLen>(plan.litlen_lengths()),
                  emit_codes<32>(plan.dist_lengths()));
    }

    tok_begin = tok_end;
    byte_begin = byte_end;
    if (final_block) break;
  }
}

}  // namespace

Lz77Params lz77_params_for(DeflateLevel level) noexcept {
  switch (level) {
    case DeflateLevel::kFast:
      return {.max_chain = 32, .good_length = 8, .nice_length = 128,
              .lazy = true};
    case DeflateLevel::kBest:
      return {.max_chain = 1024, .good_length = 32, .nice_length = 258,
              .lazy = true};
    case DeflateLevel::kStored:
    case DeflateLevel::kDefault:
      break;
  }
  return {};
}

std::string_view to_string(DeflateLevel level) noexcept {
  switch (level) {
    case DeflateLevel::kStored: return "stored";
    case DeflateLevel::kFast: return "fast";
    case DeflateLevel::kDefault: return "default";
    case DeflateLevel::kBest: return "best";
  }
  return "unknown";
}

std::optional<DeflateLevel> deflate_level_from_name(
    std::string_view name) noexcept {
  if (name == "stored") return DeflateLevel::kStored;
  if (name == "fast") return DeflateLevel::kFast;
  if (name == "default") return DeflateLevel::kDefault;
  if (name == "best") return DeflateLevel::kBest;
  return std::nullopt;
}

namespace detail {

int length_to_code(int length) noexcept { return length_code(length); }

int dist_to_code(int distance) noexcept { return dist_code(distance); }

int length_to_code_reference(int length) noexcept {
  return length_to_code_scan(length);
}

int dist_to_code_reference(int distance) noexcept {
  return dist_to_code_scan(distance);
}

}  // namespace detail

std::vector<std::uint8_t> deflate_compress(
    std::span<const std::uint8_t> input, DeflateLevel level,
    std::vector<std::uint8_t> reuse) {
  BitWriter bw(std::move(reuse));
  deflate_into(bw, input, level);
  return std::move(bw).finish();
}

// --- gzip container (RFC 1952) -------------------------------------------

std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> input,
                                        DeflateLevel level,
                                        std::vector<std::uint8_t> reuse) {
  static constexpr std::array<std::uint8_t, 10> kHeader = {
      0x1f, 0x8b,  // magic
      0x08,        // CM = deflate
      0x00,        // FLG
      0, 0, 0, 0,  // MTIME
      0x00,        // XFL
      0xff,        // OS = unknown
  };
  BitWriter bw(std::move(reuse));
  bw.append_bytes(kHeader);
  deflate_into(bw, input, level);
  bw.align_to_byte();
  const std::uint32_t crc = crc32(input);
  const auto isize = static_cast<std::uint32_t>(input.size());
  for (int i = 0; i < 4; ++i)
    bw.append_byte(static_cast<std::uint8_t>(crc >> (8 * i)));
  for (int i = 0; i < 4; ++i)
    bw.append_byte(static_cast<std::uint8_t>(isize >> (8 * i)));
  return std::move(bw).finish();
}

std::optional<std::vector<std::uint8_t>> gzip_decompress(
    std::span<const std::uint8_t> compressed,
    std::vector<std::uint8_t> reuse) {
  if (compressed.size() < 18) return std::nullopt;
  if (compressed[0] != 0x1f || compressed[1] != 0x8b || compressed[2] != 0x08)
    return std::nullopt;
  const std::uint8_t flg = compressed[3];
  std::size_t pos = 10;
  // Optional fields: FEXTRA, FNAME, FCOMMENT, FHCRC.
  if (flg & 0x04) {  // FEXTRA
    if (compressed.size() < pos + 2) return std::nullopt;
    const std::size_t xlen = compressed[pos] | (compressed[pos + 1] << 8);
    pos += 2 + xlen;
  }
  for (const std::uint8_t bit : {std::uint8_t{0x08}, std::uint8_t{0x10}}) {
    if (flg & bit) {  // FNAME / FCOMMENT: zero-terminated
      while (pos < compressed.size() && compressed[pos] != 0) ++pos;
      ++pos;
    }
  }
  if (flg & 0x02) pos += 2;  // FHCRC
  if (compressed.size() < pos + 8) return std::nullopt;

  const auto body = compressed.subspan(pos, compressed.size() - pos - 8);
  auto decoded = deflate_decompress(body, std::move(reuse));
  if (!decoded) return std::nullopt;

  const auto trailer = compressed.subspan(compressed.size() - 8);
  std::uint32_t crc = 0;
  std::uint32_t isize = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(trailer[static_cast<std::size_t>(i)])
           << (8 * i);
    isize |=
        static_cast<std::uint32_t>(trailer[static_cast<std::size_t>(4 + i)])
        << (8 * i);
  }
  if (crc32(*decoded) != crc) return std::nullopt;
  if (static_cast<std::uint32_t>(decoded->size()) != isize)
    return std::nullopt;
  return decoded;
}

}  // namespace cdc::compress
