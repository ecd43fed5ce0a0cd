// ofp frame codec: the byte-level layer every southbound transport shares.
//
// Extracted from flowmod.cpp (which owns only the RuleOp payload now) so
// that the in-memory ControlChannel and the socket transport (src/net/)
// frame and parse bytes through one implementation:
//
//   * little-endian primitives (put_/get_), append-style so encoders can
//     write directly into a transport-owned outbound buffer -- no
//     per-frame allocation on the serving path;
//   * MsgHeader framing (version, type, 16-bit total length, xid) with
//     peek_header for whole frames and peek_frame_length for streams;
//   * FrameAssembler: reassembles complete frames out of an arbitrarily
//     fragmented byte stream (real sockets deliver any split -- the codec
//     fuzz in tests/test_ofp.cpp cuts valid streams at every byte
//     boundary), handing out zero-copy views into its own buffer;
//   * the packet-in request/reply and server-stats messages the serving
//     front end speaks (softcell-serverd + the wire load generators).
//
// Everything here is header-only and depends only on util/ids.hpp, so the
// codec is usable from any layer without dragging in the engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "util/ids.hpp"

namespace softcell::ofp {

// --- message framing ---------------------------------------------------------

// Every message starts with this fixed header.
struct MsgHeader {
  static constexpr std::uint8_t kVersion = 1;
  std::uint8_t version = kVersion;
  std::uint8_t type = 0;      // MsgType
  std::uint16_t length = 0;   // total message length in bytes
  std::uint32_t xid = 0;      // transaction id
};

enum class MsgType : std::uint8_t {
  kFlowMod = 1,
  kBarrierRequest = 2,
  kBarrierReply = 3,
  kEchoRequest = 4,
  kEchoReply = 5,
  kStatsRequest = 6,
  kStatsReply = 7,
  kPacketIn = 8,            // agent -> controller: flow event (cbench op)
  kPacketInReply = 9,       // controller -> agent: tag / classifier digest
  kServerStatsRequest = 10, // client -> server: fingerprint + counters
  kServerStatsReply = 11,
};

inline constexpr std::size_t kHeaderSize = 8;

// --- little-endian primitives ------------------------------------------------
// Append-style writers (host-order agnostic); positional readers.

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

[[nodiscard]] inline std::uint16_t get_u16(std::span<const std::uint8_t> in,
                                           std::size_t at) {
  return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}
[[nodiscard]] inline std::uint32_t get_u32(std::span<const std::uint8_t> in,
                                           std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  return v;
}
[[nodiscard]] inline std::uint64_t get_u64(std::span<const std::uint8_t> in,
                                           std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  return v;
}

inline void put_header(std::vector<std::uint8_t>& out, MsgType type,
                       std::uint16_t length, std::uint32_t xid) {
  out.push_back(MsgHeader::kVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u16(out, length);
  put_u32(out, xid);
}

// Peeks the header of a whole frame; nullopt if truncated or wrong version.
[[nodiscard]] inline std::optional<MsgHeader> peek_header(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < kHeaderSize) return std::nullopt;
  MsgHeader h;
  h.version = frame[0];
  h.type = frame[1];
  h.length = get_u16(frame, 2);
  h.xid = get_u32(frame, 4);
  if (h.version != MsgHeader::kVersion) return std::nullopt;
  if (h.length < kHeaderSize || h.length > frame.size()) return std::nullopt;
  return h;
}

// Encodes barrier / echo / stats-request control frames (header only).
[[nodiscard]] inline std::vector<std::uint8_t> encode_control(
    MsgType type, std::uint32_t xid) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize);
  put_header(out, type, kHeaderSize, xid);
  return out;
}

// --- stream reassembly -------------------------------------------------------

// Reassembles complete frames from an arbitrarily fragmented byte stream.
//
// Transports either feed() received bytes, or -- to skip the extra copy --
// recv() directly into writable() and commit() what arrived.  next() hands
// out zero-copy views into the internal buffer, valid until the next
// writable()/feed()/reset().  A length-prefixed byte stream cannot resync
// after corrupt framing (wrong version, length below the header size), so
// kBad means the connection must drop; whole-frame payload validation stays
// with the per-type decoders.
class FrameAssembler {
 public:
  enum class Status : std::uint8_t {
    kFrame,     // `frame` is the next complete frame
    kNeedMore,  // stream is mid-frame; feed more bytes
    kBad,       // framing broke; unrecoverable for this stream
  };

  // A writable region of at least min_bytes at the stream tail (compacts /
  // grows as needed).  Invalidates previously returned frame views.
  [[nodiscard]] std::span<std::uint8_t> writable(std::size_t min_bytes) {
    if (pos_ == end_) pos_ = end_ = 0;
    if (buf_.size() - end_ < min_bytes) {
      if (pos_ > 0) {
        std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
        end_ -= pos_;
        pos_ = 0;
      }
      if (buf_.size() - end_ < min_bytes)
        buf_.resize(end_ + std::max<std::size_t>(min_bytes, 4096));
    }
    return {buf_.data() + end_, buf_.size() - end_};
  }

  // Marks n bytes of the last writable() region as received.
  void commit(std::size_t n) { end_ += n; }

  // Convenience: append a fragment (one extra copy vs writable/commit).
  void feed(std::span<const std::uint8_t> bytes) {
    // A zero-length feed may carry a null source and, on an empty buffer,
    // get a null destination; memcpy with a null pointer is UB even for
    // zero bytes.
    if (bytes.empty()) return;
    auto dst = writable(bytes.size());
    std::memcpy(dst.data(), bytes.data(), bytes.size());
    commit(bytes.size());
  }

  [[nodiscard]] Status next(std::span<const std::uint8_t>& frame) {
    const std::size_t have = end_ - pos_;
    if (have < kHeaderSize) return Status::kNeedMore;
    const std::span<const std::uint8_t> view{buf_.data() + pos_, have};
    if (view[0] != MsgHeader::kVersion) return Status::kBad;
    const std::uint16_t length = get_u16(view, 2);
    if (length < kHeaderSize) return Status::kBad;
    if (have < length) return Status::kNeedMore;
    frame = view.first(length);
    pos_ += length;
    return Status::kFrame;
  }

  [[nodiscard]] std::size_t buffered() const { return end_ - pos_; }
  void reset() {
    pos_ = end_ = 0;
    buf_.clear();
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // first unconsumed byte
  std::size_t end_ = 0;  // one past the last received byte
};

// --- serving-plane messages --------------------------------------------------

// One control-plane event from an emulated agent: the Cbench "packet-in".
struct PacketInMsg {
  enum class Kind : std::uint8_t {
    kFetchClassifiers = 0,  // UE arrival / handoff: classifier fetch
    kPolicyPath = 1,        // flow miss: clause path install request
  };

  std::uint32_t xid = 0;
  Kind kind = Kind::kFetchClassifiers;
  UeId ue{};
  std::uint32_t bs = 0;
  ClauseId clause{};  // kPolicyPath only

  friend bool operator==(const PacketInMsg&, const PacketInMsg&) = default;
};

inline constexpr std::size_t kPacketInSize = kHeaderSize + 16;

inline void encode_packet_in_into(std::vector<std::uint8_t>& out,
                                  const PacketInMsg& msg) {
  put_header(out, MsgType::kPacketIn, kPacketInSize, msg.xid);
  out.push_back(static_cast<std::uint8_t>(msg.kind));
  out.push_back(0);  // reserved
  put_u16(out, 0);   // reserved
  put_u32(out, msg.ue.value());
  put_u32(out, msg.bs);
  put_u32(out, msg.clause.value());
}

[[nodiscard]] inline std::vector<std::uint8_t> encode_packet_in(
    const PacketInMsg& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(kPacketInSize);
  encode_packet_in_into(out, msg);
  return out;
}

[[nodiscard]] inline std::optional<PacketInMsg> decode_packet_in(
    std::span<const std::uint8_t> frame) {
  const auto h = peek_header(frame);
  if (!h || h->type != static_cast<std::uint8_t>(MsgType::kPacketIn))
    return std::nullopt;
  if (h->length != kPacketInSize || frame.size() < kPacketInSize)
    return std::nullopt;
  const std::uint8_t kind = frame[8];
  if (kind > static_cast<std::uint8_t>(PacketInMsg::Kind::kPolicyPath))
    return std::nullopt;
  PacketInMsg msg;
  msg.xid = h->xid;
  msg.kind = static_cast<PacketInMsg::Kind>(kind);
  msg.ue = UeId(get_u32(frame, 12));
  msg.bs = get_u32(frame, 16);
  msg.clause = ClauseId(get_u32(frame, 20));
  return msg;
}

// The controller's answer: the installed tag for a path request, or a
// digest + count of the classifier set for a fetch (enough for the load
// generator to verify results end to end without shipping the full set).
struct PacketInReply {
  std::uint32_t xid = 0;
  bool ok = true;
  PacketInMsg::Kind kind = PacketInMsg::Kind::kFetchClassifiers;
  PolicyTag tag{};                     // kPolicyPath
  std::uint32_t classifier_count = 0;  // kFetchClassifiers
  std::uint64_t digest = 0;            // FNV-1a over the result payload

  friend bool operator==(const PacketInReply&, const PacketInReply&) = default;
};

inline constexpr std::size_t kPacketInReplySize = kHeaderSize + 16;

inline void encode_packet_in_reply_into(std::vector<std::uint8_t>& out,
                                        const PacketInReply& reply) {
  put_header(out, MsgType::kPacketInReply, kPacketInReplySize, reply.xid);
  out.push_back(reply.ok ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(reply.kind));
  put_u16(out, reply.tag.valid() ? reply.tag.value() : 0xFFFF);
  put_u32(out, reply.classifier_count);
  put_u64(out, reply.digest);
}

[[nodiscard]] inline std::vector<std::uint8_t> encode_packet_in_reply(
    const PacketInReply& reply) {
  std::vector<std::uint8_t> out;
  out.reserve(kPacketInReplySize);
  encode_packet_in_reply_into(out, reply);
  return out;
}

[[nodiscard]] inline std::optional<PacketInReply> decode_packet_in_reply(
    std::span<const std::uint8_t> frame) {
  const auto h = peek_header(frame);
  if (!h || h->type != static_cast<std::uint8_t>(MsgType::kPacketInReply))
    return std::nullopt;
  if (h->length != kPacketInReplySize || frame.size() < kPacketInReplySize)
    return std::nullopt;
  const std::uint8_t ok = frame[8];
  if (ok > 1) return std::nullopt;
  const std::uint8_t kind = frame[9];
  if (kind > static_cast<std::uint8_t>(PacketInMsg::Kind::kPolicyPath))
    return std::nullopt;
  PacketInReply reply;
  reply.xid = h->xid;
  reply.ok = ok == 1;
  reply.kind = static_cast<PacketInMsg::Kind>(kind);
  const std::uint16_t tag = get_u16(frame, 10);
  reply.tag = tag == 0xFFFF ? PolicyTag{} : PolicyTag(tag);
  reply.classifier_count = get_u32(frame, 12);
  reply.digest = get_u64(frame, 16);
  return reply;
}

// Controller-side run summary, fetched over the wire after a load run: the
// canonical (recompact-then-fingerprint, interleaving-independent) state
// fingerprint plus the serving counters the client cross-checks.
struct ServerStatsMsg {
  std::uint32_t xid = 0;
  std::uint64_t fingerprint = 0;  // ControlBrain::canonical_fingerprint()
  std::uint64_t packet_ins = 0;   // decoded packet-in frames, lifetime
  std::uint64_t replies = 0;      // packet-in replies queued
  std::uint64_t drops = 0;        // slow-client backpressure drops

  friend bool operator==(const ServerStatsMsg&, const ServerStatsMsg&) =
      default;
};

inline constexpr std::size_t kServerStatsReplySize = kHeaderSize + 32;

inline void encode_server_stats_into(std::vector<std::uint8_t>& out,
                                     const ServerStatsMsg& stats) {
  put_header(out, MsgType::kServerStatsReply, kServerStatsReplySize,
             stats.xid);
  put_u64(out, stats.fingerprint);
  put_u64(out, stats.packet_ins);
  put_u64(out, stats.replies);
  put_u64(out, stats.drops);
}

[[nodiscard]] inline std::vector<std::uint8_t> encode_server_stats(
    const ServerStatsMsg& stats) {
  std::vector<std::uint8_t> out;
  out.reserve(kServerStatsReplySize);
  encode_server_stats_into(out, stats);
  return out;
}

[[nodiscard]] inline std::optional<ServerStatsMsg> decode_server_stats(
    std::span<const std::uint8_t> frame) {
  const auto h = peek_header(frame);
  if (!h || h->type != static_cast<std::uint8_t>(MsgType::kServerStatsReply))
    return std::nullopt;
  if (h->length != kServerStatsReplySize ||
      frame.size() < kServerStatsReplySize)
    return std::nullopt;
  ServerStatsMsg s;
  s.xid = h->xid;
  s.fingerprint = get_u64(frame, 8);
  s.packet_ins = get_u64(frame, 16);
  s.replies = get_u64(frame, 24);
  s.drops = get_u64(frame, 32);
  return s;
}

}  // namespace softcell::ofp
