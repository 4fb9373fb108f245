// "Tapstream" wire protocol: captured frames over a live TCP connection.
//
// A fleet client owns one stream of captured Ethernet frames (one
// endpoint-pair's slice of a capture) and replays it to the daemon over
// one TCP connection per stream. The protocol is deliberately minimal and
// little-endian throughout (decoded with the poisoning ByteReader, like
// every other wire format in this tree). Version 2:
//
//   client -> server   Hello   { magic, version, kind, stream_id, total }
//   server -> client   HelloAck{ magic, status, resume_cursor }
//   client -> server   ( Record   { marker, ts, original_length, cap_len, bytes }
//                      | Progress { marker, ts } )*
//   client -> server   Fin     { marker, total_frames }
//   server -> client   FinAck  { marker, total_frames }
//
// A Progress is a promise: every Record this stream sends after the ones
// already received has capture ts >= `ts`. Records carry non-decreasing
// timestamps anyway, so a promise only says it early — while a paced
// client waits for its next frame to fall due — and the server's merge
// stops waiting on the silent stream below `ts`. Nothing may follow Fin.
//
// The ack's `resume_cursor` is the number of frames the server has already
// *released to the analyzer* for this stream id; the client skips that
// many and resends the rest. That cursor-based resume is what makes both
// reconnect churn and daemon crash-restore lossless: any frame the server
// buffered but had not released when a connection (or the daemon) died is
// simply sent again.
//
// A Hello with kind=kQuery instead asks for the current AnalysisReport,
// and kind=kHealth for the supervision registry's health JSON (per-
// subsystem state, recovery counts, and the recovery ledger):
//   server -> client   QueryReply { status, json_len, json_bytes }, close.
//
// Versions must match exactly: a hello of any other version is refused
// before the stream registers.
#pragma once

#include <cstdint>
#include <optional>

#include "util/bytes.hpp"
#include "util/expected.hpp"
#include "util/timebase.hpp"

namespace uncharted::netd::wire {

inline constexpr std::uint32_t kMagic = 0x554E5450;  // "UNTP"
inline constexpr std::uint16_t kVersion = 2;

/// Frames larger than this are protocol abuse, not Ethernet.
inline constexpr std::uint32_t kMaxFrameBytes = 128 * 1024;

enum class HelloKind : std::uint8_t {
  kData = 1,    ///< this connection replays one capture stream
  kQuery = 2,   ///< this connection fetches the current report JSON
  kHealth = 3,  ///< this connection fetches the supervision health JSON
};

enum class AckStatus : std::uint8_t {
  kAccepted = 0,  ///< stream registered; send frames from resume_cursor
  kBusy = 1,      ///< admission control refused; retry with backoff
  kFinished = 2,  ///< stream already fully ingested; nothing to send
};

enum class Marker : std::uint8_t {
  kRecord = 1,    ///< one captured frame follows
  kFin = 2,       ///< stream complete at `total_frames`
  kFinAck = 3,    ///< server confirms the stream is fully released
  kProgress = 4,  ///< no later record of this stream is below `ts`
};

inline constexpr std::size_t kHelloSize = 4 + 2 + 1 + 8 + 8;
inline constexpr std::size_t kHelloAckSize = 4 + 1 + 8;
inline constexpr std::size_t kRecordHeaderSize = 1 + 8 + 4 + 4;
inline constexpr std::size_t kFinSize = 1 + 8;
inline constexpr std::size_t kFinAckSize = 1 + 8;
inline constexpr std::size_t kProgressSize = 1 + 8;
inline constexpr std::size_t kQueryReplyHeaderSize = 1 + 4;

struct Hello {
  HelloKind kind = HelloKind::kData;
  std::uint64_t stream_id = 0;
  std::uint64_t total_frames = 0;  ///< 0 when unknown up front
};

struct HelloAck {
  AckStatus status = AckStatus::kAccepted;
  std::uint64_t resume_cursor = 0;
};

struct RecordHeader {
  Timestamp ts = 0;
  std::uint32_t original_length = 0;
  std::uint32_t cap_len = 0;  ///< payload bytes that follow
};

void encode_hello(ByteWriter& w, const Hello& h);
void encode_hello_ack(ByteWriter& w, const HelloAck& ack);
void encode_record_header(ByteWriter& w, const RecordHeader& r);
void encode_fin(ByteWriter& w, std::uint64_t total_frames);
void encode_fin_ack(ByteWriter& w, std::uint64_t total_frames);
void encode_progress(ByteWriter& w, Timestamp ts);
void encode_query_reply_header(ByteWriter& w, AckStatus status,
                               std::uint32_t json_len);

/// Each decode consumes exactly its message's bytes from `r` on success.
/// A failed decode poisons the reader; callers check buffered length
/// against the k*Size constants first, so failure means malformed bytes
/// (wrong magic/version/marker), never a short buffer.
Result<Hello> decode_hello(ByteReader& r);
Result<HelloAck> decode_hello_ack(ByteReader& r);
/// Validates cap_len <= kMaxFrameBytes.
Result<RecordHeader> decode_record_header(ByteReader& r);
Result<std::uint64_t> decode_fin(ByteReader& r);
Result<std::uint64_t> decode_fin_ack(ByteReader& r);
Result<Timestamp> decode_progress(ByteReader& r);

}  // namespace uncharted::netd::wire
