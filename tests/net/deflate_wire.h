// Test helper: re-encodes a wire message the way peers sent it before
// every encoder switched to stored bodies — the same tool frame, with the
// body DEFLATE-compressed by tool::encode_frame, plus the trailing CRC-32.
// Decoders must keep accepting such messages.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/crc32.h"
#include "net/protocol.h"
#include "tool/frame.h"

namespace cdc::net {

inline std::vector<std::uint8_t> deflate_bodied(
    std::span<const std::uint8_t> wire) {
  WireParser parser;
  parser.feed(wire);
  Message msg;
  if (parser.next(&msg) != WireParser::Status::kMessage) return {};
  tool::FrameJob job;
  job.codec = static_cast<std::uint8_t>(msg.type);
  job.meta = msg.meta;
  job.payload = std::move(msg.body);
  std::vector<std::uint8_t> out = tool::encode_frame(job);
  const std::uint32_t crc = compress::crc32(out);
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  return out;
}

}  // namespace cdc::net
