#include "iec104/parser.hpp"

#include <algorithm>
#include <cmath>

namespace uncharted::iec104 {

std::array<CodecProfile, 4> candidate_profiles() {
  return {CodecProfile::standard(), CodecProfile::legacy_cot(),
          CodecProfile::legacy_ioa(), CodecProfile::legacy_both()};
}

std::vector<CodecProfile> detect_profiles(std::span<const std::uint8_t> apdu_bytes) {
  std::vector<CodecProfile> matches;
  ParsedApdu apdu;
  for (const auto& profile : candidate_profiles()) {
    if (check_apdu(apdu_bytes, profile, apdu)) {
      matches.push_back(profile);
      // S/U frames carry no ASDU, so every profile "matches"; report only
      // the standard one for them.
      if (!apdu.is_i()) break;
    }
  }
  return matches;
}

namespace {

/// The sink of a plain feed(): the parser's own list.
class KeepSink final : public ApduSink {
 public:
  explicit KeepSink(std::vector<ParsedApdu>& out) : out_(out) {}
  void put(const ParsedApdu& apdu) override { out_.push_back(apdu); }

 private:
  std::vector<ParsedApdu>& out_;
};

}  // namespace

std::pmr::memory_resource* ApduStreamParser::ScratchArena::get() {
  if (!storage_) storage_ = std::make_unique<Storage>();
  return &storage_->resource;
}

void ApduStreamParser::ScratchArena::recycle() {
  // release() rewinds to the initial buffer: no heap traffic per packet.
  if (storage_) storage_->resource.release();
}

void ApduStreamParser::feed(Timestamp ts, std::span<const std::uint8_t> data) {
  KeepSink keep(apdus_);
  feed(ts, data, keep);
}

void ApduStreamParser::feed(Timestamp ts, std::span<const std::uint8_t> data,
                            ApduSink& sink) {
  if (buffer_.empty()) {
    // Zero-copy fast path: with no partial frame pending, parse straight
    // from the caller's bytes. Only a frame cut off at the end of `data`
    // is copied in, to wait for the rest of the stream.
    std::size_t consumed = parse_span(ts, data, sink);
    if (consumed < data.size()) {
      buffer_.assign(data.begin() + static_cast<std::ptrdiff_t>(consumed),
                     data.end());
    }
    return;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  parse_buffer(ts, sink);
}

void ApduStreamParser::finish(Timestamp ts) {
  if (buffer_.empty()) return;
  ParseFailure f;
  f.ts = ts;
  f.kind = FailureKind::kTruncatedTail;
  f.error = "truncated-tail";
  f.raw = std::move(buffer_);
  buffer_.clear();
  truncated_tail_bytes_ += f.raw.size();
  failures_.push_back(std::move(f));
}

void ApduStreamParser::drain(std::vector<ParsedApdu>& apdus_out,
                             std::vector<ParseFailure>& failures_out) {
  for (auto& a : apdus_) apdus_out.push_back(std::move(a));
  for (auto& f : failures_) failures_out.push_back(std::move(f));
  apdus_.clear();
  failures_.clear();
}

void ApduStreamParser::save(ByteWriter& w) const {
  w.u8(mode_ == Mode::kTolerant ? 1 : 0);
  w.u8(locked_.has_value() ? 1 : 0);
  if (locked_) {
    w.u8(static_cast<std::uint8_t>(locked_->cot_octets));
    w.u8(static_cast<std::uint8_t>(locked_->ioa_octets));
    w.u8(static_cast<std::uint8_t>(locked_->ca_octets));
  }
  w.u64le(non_compliant_);
  w.u64le(resyncs_);
  w.u64le(garbage_bytes_);
  w.u64le(truncated_tail_bytes_);
  w.u32le(static_cast<std::uint32_t>(buffer_.size()));
  w.bytes(buffer_);
}

Result<ApduStreamParser> ApduStreamParser::load(ByteReader& r) {
  auto mode = r.u8();
  if (!mode) return mode.error();
  ApduStreamParser p(mode.value() ? Mode::kTolerant : Mode::kStrict);
  auto has_locked = r.u8();
  if (!has_locked) return has_locked.error();
  if (has_locked.value()) {
    auto cot = r.u8();
    auto ioa = r.u8();
    auto ca = r.u8();
    if (!ca) return ca.error();
    const CodecProfile locked{cot.value(), ioa.value(), ca.value()};
    // Records store the profile in one octet (CodecProfile::code()).
    if (!locked.codable()) return Err("bad-locked-profile", locked.str());
    p.locked_ = locked;
  }
  auto non_compliant = r.u64le();
  auto resyncs = r.u64le();
  auto garbage = r.u64le();
  auto tail = r.u64le();
  auto len = r.u32le();
  if (!len) return len.error();
  auto buf = r.bytes(len.value());
  if (!buf) return buf.error();
  p.non_compliant_ = non_compliant.value();
  p.resyncs_ = resyncs.value();
  p.garbage_bytes_ = garbage.value();
  p.truncated_tail_bytes_ = tail.value();
  p.buffer_.assign(buf->begin(), buf->end());
  return p;
}

void ApduStreamParser::parse_buffer(Timestamp ts, ApduSink& sink) {
  std::size_t pos = parse_span(ts, buffer_, sink);
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
}

std::size_t ApduStreamParser::parse_span(Timestamp ts, std::span<const std::uint8_t> data,
                                         ApduSink& sink) {
  std::size_t pos = 0;
  while (pos < data.size()) {
    // Resynchronize on the start byte, recording skipped garbage.
    if (data[pos] != kStartByte) {
      std::size_t next = pos;
      while (next < data.size() && data[next] != kStartByte) ++next;
      ParseFailure f;
      f.ts = ts;
      f.kind = FailureKind::kGarbage;
      f.error = "bad-start-byte";
      f.raw.assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
                   data.begin() + static_cast<std::ptrdiff_t>(next));
      ++resyncs_;
      garbage_bytes_ += f.raw.size();
      failures_.push_back(std::move(f));
      pos = next;
      continue;
    }
    // The start byte is validated above; an absent length octet, or too
    // few bytes for what it frames, means the frame is still arriving.
    const std::span<const std::uint8_t> rest = data.subspan(pos);
    if (rest.size() < 2) break;
    const std::size_t frame_len = 2 + static_cast<std::size_t>(rest[1]);
    if (frame_len > rest.size()) break;  // incomplete frame

    std::span<const std::uint8_t> frame = rest.first(frame_len);
    if (!try_parse_frame(frame, sink)) {
      ParseFailure f;
      f.ts = ts;
      f.kind = FailureKind::kUndecodable;
      f.error = "undecodable-apdu";
      f.raw.assign(frame.begin(), frame.end());
      failures_.push_back(std::move(f));
    }
    pos += frame_len;
  }
  return pos;
}

int asdu_plausibility(const AsduView& asdu, const CodecProfile& profile) {
  int score = 0;

  // Known cause of transmission values.
  auto c = static_cast<std::uint8_t>(asdu.cot.cause);
  bool known_cause = (c >= 1 && c <= 13) || (c >= 20 && c <= 41) || (c >= 44 && c <= 47);
  score += known_cause ? 4 : -4;
  // Originator addresses are almost always zero in the field.
  if (profile.cot_octets == 2 && asdu.cot.originator == 0) score += 1;
  // Common addresses identify stations; fleets stay far below the 16-bit
  // maximum, and almost always below 256 (the IEC 101 heritage).
  if (asdu.common_address > 0 && asdu.common_address < 256) {
    score += 3;
  } else if (asdu.common_address < 4096) {
    score += 1;
  }

  for (const auto& obj : asdu.objects) {
    // A wrong field split shifts header bytes into the IOA, producing the
    // paper's "invalid IOA addresses".
    if (obj.ioa < 65536) {
      score += 2;
    } else if (obj.ioa >= (1u << 22)) {
      score -= 2;
    }
    // ... and misaligned floats look "completely random".
    if (const auto* f = std::get_if<ShortFloat>(&obj.value)) {
      double v = std::fabs(f->value);
      bool sane = std::isfinite(f->value) && (v == 0.0 || (v > 1e-6 && v < 1e7));
      score += sane ? 2 : -4;
    }
    if (const auto* sp = std::get_if<SetpointFloat>(&obj.value)) {
      double v = std::fabs(sp->value);
      bool sane = std::isfinite(sp->value) && (v == 0.0 || (v > 1e-6 && v < 1e7));
      score += sane ? 2 : -4;
    }
    if (obj.time && obj.time->invalid) score -= 1;
  }
  return score;
}

bool ApduStreamParser::try_parse_frame(std::span<const std::uint8_t> frame,
                                       ApduSink& sink) {
  // Fast paths first: a locked legacy profile explains this stream, and
  // the standard profile explains compliant streams — the field-width
  // mismatch makes cross-profile "exact" parses impossible for them (the
  // VSQ object count pins the expected length). Each is one header check;
  // only a frame neither explains goes to the plausibility vote, which
  // disambiguates the legacy layouts (a 1-octet-COT reading of a
  // 2-octet-IOA frame consumes the same bytes).
  const CodecProfile standard = CodecProfile::standard();
  ParsedApdu apdu;
  std::optional<CodecProfile> chosen;
  if (mode_ == Mode::kStrict) {
    if (check_apdu(frame, standard, apdu)) chosen = standard;
  } else if (locked_ && check_apdu(frame, *locked_, apdu)) {
    chosen = *locked_;
  } else if (check_apdu(frame, standard, apdu)) {
    chosen = standard;
  } else {
    chosen = vote(frame, apdu);
  }
  if (!chosen) return false;
  if (apdu.object_data == nullptr) decode_objects(frame, *chosen, arena(), apdu);
  if (!apdu.compliant) {
    ++non_compliant_;
    locked_ = *chosen;
  }
  sink.put(apdu);
  return true;
}

std::optional<CodecProfile> ApduStreamParser::vote(std::span<const std::uint8_t> frame,
                                                   ParsedApdu& out) {
  std::array<ParsedApdu, 3> candidates;
  std::array<CodecProfile, 3> profiles;
  std::size_t n = 0;
  for (const auto& profile : candidate_profiles()) {
    if (profile.is_standard() || (locked_ && profile == *locked_)) continue;
    if (check_apdu(frame, profile, candidates[n])) profiles[n++] = profile;
  }
  if (n == 0) return std::nullopt;
  // Several layouts explain the bytes exactly: decode each and keep the
  // most plausible, the earliest on a tie.
  std::size_t best = 0;
  int best_score = 0;
  for (std::size_t k = 0; k < n && n > 1; ++k) {
    decode_objects(frame, profiles[k], arena(), candidates[k]);
    const int score = asdu_plausibility(candidates[k].asdu(), profiles[k]);
    if (k == 0 || score > best_score) {
      best = k;
      best_score = score;
    }
  }
  out = candidates[best];
  return profiles[best];
}

}  // namespace uncharted::iec104
