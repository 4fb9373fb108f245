#include "netd/wire.hpp"

namespace uncharted::netd::wire {

void encode_hello(ByteWriter& w, const Hello& h) {
  w.u32le(kMagic);
  w.u16le(kVersion);
  w.u8(static_cast<std::uint8_t>(h.kind));
  w.u64le(h.stream_id);
  w.u64le(h.total_frames);
}

void encode_hello_ack(ByteWriter& w, const HelloAck& ack) {
  w.u32le(kMagic);
  w.u8(static_cast<std::uint8_t>(ack.status));
  w.u64le(ack.resume_cursor);
}

void encode_record_header(ByteWriter& w, const RecordHeader& r) {
  w.u8(static_cast<std::uint8_t>(Marker::kRecord));
  w.u64le(r.ts);
  w.u32le(r.original_length);
  w.u32le(r.cap_len);
}

void encode_fin(ByteWriter& w, std::uint64_t total_frames) {
  w.u8(static_cast<std::uint8_t>(Marker::kFin));
  w.u64le(total_frames);
}

void encode_fin_ack(ByteWriter& w, std::uint64_t total_frames) {
  w.u8(static_cast<std::uint8_t>(Marker::kFinAck));
  w.u64le(total_frames);
}

void encode_progress(ByteWriter& w, Timestamp ts) {
  w.u8(static_cast<std::uint8_t>(Marker::kProgress));
  w.u64le(ts);
}

void encode_query_reply_header(ByteWriter& w, AckStatus status,
                               std::uint32_t json_len) {
  w.u8(static_cast<std::uint8_t>(status));
  w.u32le(json_len);
}

Result<Hello> decode_hello(ByteReader& r) {
  auto magic = r.u32le();
  if (!magic || magic.value() != kMagic) {
    return Error{"wire-magic", "hello magic mismatch"};
  }
  auto version = r.u16le();
  if (!version || version.value() != kVersion) {
    return Error{"wire-version", "unsupported tapstream version"};
  }
  auto kind = r.u8();
  auto stream_id = r.u64le();
  auto total = r.u64le();
  if (!total) return Error{"wire-truncated", "hello truncated"};
  if (kind.value() < static_cast<std::uint8_t>(HelloKind::kData) ||
      kind.value() > static_cast<std::uint8_t>(HelloKind::kHealth)) {
    return Error{"wire-kind", "unknown hello kind"};
  }
  Hello h;
  h.kind = static_cast<HelloKind>(kind.value());
  h.stream_id = stream_id.value();
  h.total_frames = total.value();
  return h;
}

Result<HelloAck> decode_hello_ack(ByteReader& r) {
  auto magic = r.u32le();
  if (!magic || magic.value() != kMagic) {
    return Error{"wire-magic", "ack magic mismatch"};
  }
  auto status = r.u8();
  auto cursor = r.u64le();
  if (!cursor) return Error{"wire-truncated", "ack truncated"};
  if (status.value() > static_cast<std::uint8_t>(AckStatus::kFinished)) {
    return Error{"wire-status", "unknown ack status"};
  }
  HelloAck ack;
  ack.status = static_cast<AckStatus>(status.value());
  ack.resume_cursor = cursor.value();
  return ack;
}

Result<RecordHeader> decode_record_header(ByteReader& r) {
  auto marker = r.u8();
  if (!marker || marker.value() != static_cast<std::uint8_t>(Marker::kRecord)) {
    return Error{"wire-marker", "expected record marker"};
  }
  auto ts = r.u64le();
  auto original = r.u32le();
  auto cap_len = r.u32le();
  if (!cap_len) return Error{"wire-truncated", "record header truncated"};
  if (cap_len.value() > kMaxFrameBytes) {
    return Error{"wire-oversized",
                 "record declares " + std::to_string(cap_len.value()) +
                     " bytes (cap " + std::to_string(kMaxFrameBytes) + ")"};
  }
  RecordHeader rec;
  rec.ts = ts.value();
  rec.original_length = original.value();
  rec.cap_len = cap_len.value();
  return rec;
}

namespace {

Result<std::uint64_t> decode_marker_u64(ByteReader& r, Marker expect,
                                        const char* what) {
  auto marker = r.u8();
  if (!marker || marker.value() != static_cast<std::uint8_t>(expect)) {
    return Error{"wire-marker", std::string("expected ") + what + " marker"};
  }
  auto total = r.u64le();
  if (!total) return Error{"wire-truncated", std::string(what) + " truncated"};
  return total.value();
}

}  // namespace

Result<std::uint64_t> decode_fin(ByteReader& r) {
  return decode_marker_u64(r, Marker::kFin, "fin");
}

Result<std::uint64_t> decode_fin_ack(ByteReader& r) {
  return decode_marker_u64(r, Marker::kFinAck, "fin-ack");
}

Result<Timestamp> decode_progress(ByteReader& r) {
  return decode_marker_u64(r, Marker::kProgress, "progress");
}

}  // namespace uncharted::netd::wire
