// The fixed-offset APDU decode (check_apdu + decode_objects) against the
// layered ByteReader reference (decode_apdu_layered), and the stream parser
// built on it against a reference parser built on the layered decoder.
//
// Inputs: every APDU of a 60-s Y1 and a 60-s Y2 capture (standard and
// legacy stations), the IEC 104 corpus seeds, every truncation of them, and
// single-field mutations of every header field and of every object byte.
// Each decode runs under all four candidate profiles and a 1-octet common
// address. A truncated input sits at the very end of its buffer, so a
// sanitizer build also catches a read past a cut frame.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory_resource>
#include <set>
#include <string>
#include <tuple>

#include "corpus/corpus.hpp"
#include "iec104/apdu.hpp"
#include "iec104/parser.hpp"
#include "net/flow.hpp"
#include "net/frame.hpp"
#include "sim/capture.hpp"

namespace uncharted::iec104 {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Element equality, with floats compared by their bits (a NaN decodes
/// the same both ways but is unequal to itself).
bool same_value(const ElementValue& a, const ElementValue& b) {
  if (a == b) return true;
  auto float_bits = [](const ElementValue& v) -> std::optional<std::pair<std::uint32_t, int>> {
    if (const auto* p = std::get_if<ShortFloat>(&v)) {
      return std::pair{std::bit_cast<std::uint32_t>(p->value), int{p->quality.encode()}};
    }
    if (const auto* p = std::get_if<SetpointFloat>(&v)) {
      return std::pair{std::bit_cast<std::uint32_t>(p->value), int{p->qos}};
    }
    if (const auto* p = std::get_if<ParameterFloat>(&v)) {
      return std::pair{std::bit_cast<std::uint32_t>(p->value), int{p->qpm}};
    }
    return std::nullopt;
  };
  return a.index() == b.index() && float_bits(a) && float_bits(a) == float_bits(b);
}

bool same_objects(std::span<const InformationObject> a,
                  std::span<const InformationObject> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ioa != b[i].ioa || !same_value(a[i].value, b[i].value) || a[i].time != b[i].time) {
      return false;
    }
  }
  return true;
}

/// Every field of two ParsedApdus, objects compared by value.
bool same_apdu(const ParsedApdu& a, const ParsedApdu& b) {
  return a.format == b.format && a.send_seq == b.send_seq && a.recv_seq == b.recv_seq &&
         a.u_function == b.u_function && a.type == b.type && a.vsq == b.vsq &&
         a.cot_octet == b.cot_octet && a.originator == b.originator &&
         a.common_address == b.common_address && a.profile_code == b.profile_code &&
         a.compliant == b.compliant && a.wire_size == b.wire_size &&
         same_objects(a.objects(), b.objects());
}

/// The layered decode's verdict on `frame` under `profile`, as the fast
/// path must reproduce it: accepted only if it consumed the whole frame.
std::optional<Apdu> reference_decode(std::span<const std::uint8_t> frame,
                                     const CodecProfile& profile) {
  ByteReader r(frame);
  auto apdu = decode_apdu_layered(r, profile);
  if (!apdu || !r.empty()) return std::nullopt;
  return std::move(apdu).take();
}

/// The four candidate profiles, and a 1-octet common address, which a
/// parser can only be handed through a checkpoint's locked profile.
std::vector<CodecProfile> decode_profiles() {
  auto candidates = candidate_profiles();
  std::vector<CodecProfile> out(candidates.begin(), candidates.end());
  out.push_back(CodecProfile{1, 2, 1});
  return out;
}

class DecodeAgreement {
 public:
  /// `describe` runs only for the first disagreement.
  template <typename Describe>
  void check(std::span<const std::uint8_t> frame, Describe&& describe) {
    for (const CodecProfile& profile : profiles_) {
      ++checked_;
      arena_.release();
      ParsedApdu fast;
      const bool checked = check_apdu(frame, profile, fast);
      ParsedApdu full;
      const bool fast_ok = decode_apdu_into(frame, profile, &arena_, full);
      const std::optional<Apdu> ref = reference_decode(frame, profile);
      bool agree = checked == fast_ok && fast_ok == ref.has_value();
      if (agree && fast_ok) {
        ParsedApdu expected = ParsedApdu::view_of(*ref, profile);
        expected.wire_size = static_cast<std::uint16_t>(frame.size());
        agree = same_apdu(full, expected) && fast.object_data == nullptr;
        ++accepted_;
      }
      if (agree) continue;
      if (mismatches_++ > 0) continue;
      first_mismatch_ = std::string(describe()) + " under " + profile.str() + " (" +
                        std::to_string(frame.size()) + " bytes " + hex_dump(frame) +
                        "): fixed-offset " + (fast_ok ? "accepts" : "rejects") +
                        (checked == fast_ok ? "" : " (check_apdu disagrees)") +
                        ", layered " + (ref ? "accepts" : "rejects");
      if (fast_ok && ref) first_mismatch_ += ", fields differ";
    }
  }

  std::size_t checked() const { return checked_; }
  std::size_t accepted() const { return accepted_; }
  std::size_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  const std::vector<CodecProfile> profiles_ = decode_profiles();
  std::pmr::monotonic_buffer_resource arena_;
  std::size_t checked_ = 0;
  std::size_t accepted_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_mismatch_;
};

struct Mutation {
  std::string field;
  Bytes bytes;  ///< the whole mutated frame
};

/// Single-field rewrites of a framed APDU. Offsets: 0 start, 1 length,
/// 2..5 control octets, 6 type id, 7 VSQ, 8 COT; what follows depends on
/// the profile, so every later byte (originator, common address, IOAs,
/// elements, CP56 tags) gets the same set of values.
std::vector<Mutation> mutations(const Bytes& frame) {
  std::vector<Mutation> out;
  auto set = [&](const std::string& field, std::size_t offset, std::uint8_t v) {
    if (offset >= frame.size() || frame[offset] == v) return;
    Bytes m = frame;
    m[offset] = v;
    out.push_back({field + " @" + std::to_string(offset) + "=" + std::to_string(v), m});
  };
  if (frame.size() < 2) return out;
  const std::size_t len = frame[1];
  for (std::size_t v : {0u, 1u, 3u, 4u, 5u, 253u, 254u, 255u}) set("length", 1, static_cast<std::uint8_t>(v));
  set("length", 1, static_cast<std::uint8_t>(len - 1));
  set("length", 1, static_cast<std::uint8_t>(len + 1));
  // Extra octets framed by the length: an S/U frame longer than 4, an
  // I-frame with trailing bytes.
  for (std::size_t extra : {1u, 2u}) {
    if (len + extra > 255) continue;
    Bytes m = frame;
    m[1] = static_cast<std::uint8_t>(len + extra);
    m.insert(m.end(), extra, std::uint8_t{0});
    out.push_back({"framed length +" + std::to_string(extra), m});
  }
  if (frame.size() < 6) return out;
  // Re-framed cuts: the frame cut short with its length octet rewritten to
  // match, so the exact-length checks, not the framing, must reject a
  // missing object, element octet or time tag. With VSQ count 0, plain and
  // with the SQ bit, a cut also offers a header with no or one IOA's worth
  // of objects.
  for (std::size_t cut = 6; cut < frame.size(); ++cut) {
    Bytes m(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut));
    m[1] = static_cast<std::uint8_t>(cut - 2);
    out.push_back({"re-framed to " + std::to_string(cut), m});
    if (cut <= 7) continue;
    for (std::uint8_t vsq : {0x00, 0x80}) {
      m[7] = vsq;
      out.push_back({"re-framed to " + std::to_string(cut) + " VSQ=" + std::to_string(vsq), m});
    }
  }
  for (std::uint8_t low : {0, 1, 2, 3}) {
    set("format bits", 2, static_cast<std::uint8_t>((frame[2] & 0xfc) | low));
  }
  for (std::uint8_t fn : {0x03, 0x07, 0x0b, 0x13, 0x23, 0x43, 0x83, 0x0f, 0xc3, 0xff}) {
    set("U function", 2, fn);
  }
  for (std::size_t i = 3; i < 6; ++i) set("control octet", i, static_cast<std::uint8_t>(frame[i] ^ 0x01));
  for (std::uint8_t type : {0, 1, 2, 13, 21, 36, 41, 44, 45, 50, 100, 102, 103, 104, 120,
                            125, 126, 127, 128, 200, 255}) {
    set("type id", 6, type);
  }
  if (frame.size() > 7) {
    const std::uint8_t sq = frame[7] & 0x80;
    const std::uint8_t n = frame[7] & 0x7f;
    for (std::uint8_t count : {0, 1, 2, 127}) set("VSQ count", 7, static_cast<std::uint8_t>(sq | count));
    set("VSQ count", 7, static_cast<std::uint8_t>(sq | ((n + 1) & 0x7f)));
    set("VSQ count", 7, static_cast<std::uint8_t>(sq | ((n - 1) & 0x7f)));
    set("SQ bit", 7, static_cast<std::uint8_t>(frame[7] ^ 0x80));
  }
  for (std::uint8_t cot : {0, 3, 0x43, 0x83, 63, 255}) set("COT", 8, cot);
  // Originator, common address, IOA, element and CP56 octets: zero, all
  // ones, a low- and a high-bit flip, and values past a CP56 field's
  // range (minute 60, hour 24, month 13).
  for (std::size_t i = 9; i < frame.size(); ++i) {
    for (std::uint8_t v : {std::uint8_t{0x00}, std::uint8_t{0xff},
                           static_cast<std::uint8_t>(frame[i] ^ 0x01),
                           static_cast<std::uint8_t>(frame[i] ^ 0x80), std::uint8_t{0x3c},
                           std::uint8_t{0x18}, std::uint8_t{0x0d}}) {
      set("object byte", i, v);
    }
  }
  return out;
}

/// Checks every prefix of `bytes`, each at the end of a buffer of the
/// full size.
template <typename Describe>
void check_prefixes(DecodeAgreement& agree, const Bytes& bytes, Describe&& describe) {
  Bytes buffer(bytes.size());
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const std::span<std::uint8_t> cut = std::span(buffer).last(len);
    std::copy_n(bytes.begin(), len, cut.begin());
    agree.check(cut, [&] { return describe() + " cut to " + std::to_string(len); });
  }
}

void check_apdu_bytes(DecodeAgreement& agree, const Bytes& frame, const std::string& name,
                      bool truncate_mutants) {
  check_prefixes(agree, frame, [&] { return name; });
  for (const Mutation& m : mutations(frame)) {
    auto what = [&] { return name + " " + m.field; };
    if (truncate_mutants) {
      check_prefixes(agree, m.bytes, what);
    } else {
      agree.check(m.bytes, what);
    }
  }
}

using FlowPayloads = std::map<net::FlowKey, std::vector<Bytes>>;

/// The IEC 104 payloads of a capture, per directed flow in capture order.
FlowPayloads iec104_payloads(const sim::CaptureResult& capture) {
  FlowPayloads out;
  net::DecodedFrame frame;
  for (const auto& pkt : capture.packets) {
    if (!net::decode_frame_into(pkt.data, frame) || frame.payload.empty()) continue;
    if (frame.tcp.src_port != kIec104Port && frame.tcp.dst_port != kIec104Port) continue;
    net::FlowKey key{frame.ip.src, frame.tcp.src_port, frame.ip.dst, frame.tcp.dst_port};
    out[key].emplace_back(frame.payload.begin(), frame.payload.end());
  }
  return out;
}

/// The framed APDUs of a payload (a trailing partial frame is dropped).
std::vector<Bytes> split_apdus(const Bytes& payload) {
  std::vector<Bytes> out;
  std::size_t pos = 0;
  while (pos + 2 <= payload.size() && payload[pos] == kStartByte) {
    const std::size_t len = 2 + static_cast<std::size_t>(payload[pos + 1]);
    if (pos + len > payload.size()) break;
    out.emplace_back(payload.begin() + static_cast<std::ptrdiff_t>(pos),
                     payload.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }
  return out;
}

const std::vector<FlowPayloads>& capture_payloads() {
  static const std::vector<FlowPayloads> payloads = [] {
    std::vector<FlowPayloads> out;
    out.push_back(iec104_payloads(sim::generate_capture(sim::CaptureConfig::y1(60.0))));
    out.push_back(iec104_payloads(sim::generate_capture(sim::CaptureConfig::y2(60.0))));
    return out;
  }();
  return payloads;
}

TEST(ApduDecode, FixedOffsetMatchesLayeredDecoder) {
  DecodeAgreement agree;
  // Every APDU whole; one APDU per (length, header) shape also cut at
  // every length and mutated field by field.
  std::set<std::tuple<std::size_t, std::uint8_t, std::uint8_t, std::uint8_t, std::uint8_t>>
      shapes;
  std::size_t apdus = 0;
  for (const FlowPayloads& capture : capture_payloads()) {
    for (const auto& [key, payloads] : capture) {
      for (const Bytes& payload : payloads) {
        for (const Bytes& apdu : split_apdus(payload)) {
          ++apdus;
          agree.check(apdu, [&] { return "capture APDU"; });
          const auto shape = std::make_tuple(apdu.size(), static_cast<std::uint8_t>(apdu[2] & 3),
                                             apdu.size() > 6 ? apdu[6] : 0,
                                             apdu.size() > 7 ? apdu[7] : 0,
                                             apdu.size() > 8 ? apdu[8] : 0);
          if (shapes.insert(shape).second) {
            check_apdu_bytes(agree, apdu, "capture APDU shape " + std::to_string(shapes.size()),
                             false);
          }
        }
      }
    }
  }
  ASSERT_GT(apdus, 5000u);
  for (const corpus::Seed* seed : corpus::seeds_for(corpus::Category::kIec104)) {
    check_apdu_bytes(agree, seed->bytes, "seed " + seed->name, true);
  }
  EXPECT_EQ(agree.mismatches(), 0u) << agree.first_mismatch();
  // The sweep must exercise both outcomes, legacy profiles included.
  EXPECT_GT(agree.accepted(), apdus);
  EXPECT_LT(agree.accepted(), agree.checked());
}

// --- Stream parser -----------------------------------------------------------

/// The stream parser as it read frames before the fixed-offset decode:
/// every profile attempt is a full layered decode, and the vote scores
/// every candidate.
class ReferenceParser {
 public:
  struct Parsed {
    Apdu apdu;
    CodecProfile profile;
    std::size_t wire_size;
  };

  explicit ReferenceParser(ApduStreamParser::Mode mode) : mode_(mode) {}

  void feed(Timestamp ts, std::span<const std::uint8_t> data) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    std::size_t pos = 0;
    while (pos < buffer_.size()) {
      if (buffer_[pos] != kStartByte) {
        std::size_t next = pos;
        while (next < buffer_.size() && buffer_[next] != kStartByte) ++next;
        fail(ts, FailureKind::kGarbage, "bad-start-byte", pos, next);
        ++resyncs_;
        garbage_bytes_ += next - pos;
        pos = next;
        continue;
      }
      if (pos + 2 > buffer_.size()) break;
      const std::size_t frame_len = 2 + static_cast<std::size_t>(buffer_[pos + 1]);
      if (pos + frame_len > buffer_.size()) break;
      if (!try_frame(std::span(buffer_).subspan(pos, frame_len))) {
        fail(ts, FailureKind::kUndecodable, "undecodable-apdu", pos, pos + frame_len);
      }
      pos += frame_len;
    }
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  void finish(Timestamp ts) {
    if (buffer_.empty()) return;
    fail(ts, FailureKind::kTruncatedTail, "truncated-tail", 0, buffer_.size());
    truncated_tail_bytes_ += buffer_.size();
    buffer_.clear();
  }

  void reset_stream() {
    buffer_.clear();
    locked_.reset();
    non_compliant_ = resyncs_ = garbage_bytes_ = truncated_tail_bytes_ = 0;
  }

  std::vector<Parsed>& apdus() { return apdus_; }
  std::vector<ParseFailure>& failures() { return failures_; }
  const std::optional<CodecProfile>& locked() const { return locked_; }
  std::uint64_t non_compliant() const { return non_compliant_; }
  std::uint64_t resyncs() const { return resyncs_; }
  std::uint64_t garbage_bytes() const { return garbage_bytes_; }
  std::uint64_t truncated_tail_bytes() const { return truncated_tail_bytes_; }
  std::size_t buffered() const { return buffer_.size(); }

 private:
  void fail(Timestamp ts, FailureKind kind, const char* error, std::size_t from,
            std::size_t to) {
    failures_.push_back({ts, kind, error,
                         Bytes(buffer_.begin() + static_cast<std::ptrdiff_t>(from),
                               buffer_.begin() + static_cast<std::ptrdiff_t>(to))});
  }

  bool try_frame(std::span<const std::uint8_t> frame) {
    std::optional<Parsed> best;
    int best_score = 0;
    int best_preference = 0;
    auto attempt = [&](const CodecProfile& profile, int preference) {
      std::optional<Apdu> apdu = reference_decode(frame, profile);
      if (!apdu) return;
      const int score = apdu->format == ApduFormat::kI ? asdu_plausibility(*apdu->asdu, profile) : 0;
      if (!best || score > best_score || (score == best_score && preference > best_preference)) {
        best = Parsed{std::move(*apdu), profile, frame.size()};
        best_score = score;
        best_preference = preference;
      }
    };
    if (mode_ == ApduStreamParser::Mode::kStrict) {
      attempt(CodecProfile::standard(), 0);
    } else {
      if (locked_) attempt(*locked_, 3);
      if (!best) attempt(CodecProfile::standard(), 2);
      if (!best) {
        for (const auto& profile : candidate_profiles()) {
          if (profile.is_standard() || (locked_ && profile == *locked_)) continue;
          attempt(profile, 0);
        }
      }
    }
    if (!best) return false;
    if (!best->profile.is_standard() && best->apdu.format == ApduFormat::kI) {
      ++non_compliant_;
      locked_ = best->profile;
    }
    apdus_.push_back(std::move(*best));
    return true;
  }

  ApduStreamParser::Mode mode_;
  Bytes buffer_;
  std::vector<Parsed> apdus_;
  std::vector<ParseFailure> failures_;
  std::optional<CodecProfile> locked_;
  std::uint64_t non_compliant_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t garbage_bytes_ = 0;
  std::uint64_t truncated_tail_bytes_ = 0;
};

/// Runs a parser and the reference side by side over one flow's payloads
/// and records the first difference.
class ParserAgreement {
 public:
  void run(const std::vector<Bytes>& payloads, ApduStreamParser::Mode mode,
           bool per_packet, const std::string& name) {
    ApduStreamParser parser(mode);
    ReferenceParser reference(mode);
    Timestamp ts = 1000;
    for (const Bytes& payload : payloads) {
      ++ts;
      if (per_packet) {
        parser.reset_stream();
        reference.reset_stream();
      }
      parser.feed(ts, payload);
      reference.feed(ts, payload);
      if (per_packet) {
        parser.finish(ts);
        reference.finish(ts);
      }
      compare(parser, reference, name + " packet " + std::to_string(ts - 1000));
    }
    parser.finish(ts + 1);
    reference.finish(ts + 1);
    compare(parser, reference, name + " finish");
  }

  std::size_t apdus() const { return apdus_; }
  std::size_t failures() const { return failures_; }
  std::size_t legacy() const { return legacy_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  void compare(ApduStreamParser& parser, ReferenceParser& reference, const std::string& where) {
    std::vector<ParsedApdu> got;
    std::vector<ParseFailure> got_failures;
    parser.drain(got, got_failures);
    auto& want = reference.apdus();
    auto& want_failures = reference.failures();
    std::string diff;
    if (got.size() != want.size()) {
      diff = "APDU count " + std::to_string(got.size()) + " vs " + std::to_string(want.size());
    } else {
      for (std::size_t i = 0; i < got.size() && diff.empty(); ++i) {
        ParsedApdu expected = ParsedApdu::view_of(want[i].apdu, want[i].profile);
        expected.wire_size = static_cast<std::uint16_t>(want[i].wire_size);
        if (!same_apdu(got[i], expected)) diff = "APDU " + std::to_string(i) + " differs";
        if (!got[i].compliant) ++legacy_;
      }
    }
    if (diff.empty() && got_failures.size() != want_failures.size()) {
      diff = "failure count " + std::to_string(got_failures.size()) + " vs " +
             std::to_string(want_failures.size());
    }
    for (std::size_t i = 0; diff.empty() && i < got_failures.size(); ++i) {
      const ParseFailure& a = got_failures[i];
      const ParseFailure& b = want_failures[i];
      if (a.ts != b.ts || a.kind != b.kind || a.error != b.error || a.raw != b.raw) {
        diff = "failure " + std::to_string(i) + " differs";
      }
    }
    if (diff.empty() &&
        (parser.locked_profile() != reference.locked() ||
         parser.non_compliant_count() != reference.non_compliant() ||
         parser.resyncs() != reference.resyncs() ||
         parser.garbage_bytes() != reference.garbage_bytes() ||
         parser.truncated_tail_bytes() != reference.truncated_tail_bytes() ||
         parser.buffered_bytes() != reference.buffered())) {
      diff = "locked profile or counters differ";
    }
    apdus_ += got.size();
    failures_ += got_failures.size();
    want.clear();
    want_failures.clear();
    if (!diff.empty() && first_mismatch_.empty()) first_mismatch_ = where + ": " + diff;
  }

  std::size_t apdus_ = 0;
  std::size_t failures_ = 0;
  std::size_t legacy_ = 0;
  std::string first_mismatch_;
};

std::string mode_name(ApduStreamParser::Mode mode) {
  return mode == ApduStreamParser::Mode::kStrict ? "strict" : "tolerant";
}

TEST(ApduDecode, StreamParserMatchesReferenceParser) {
  ParserAgreement agree;
  for (auto mode : {ApduStreamParser::Mode::kTolerant, ApduStreamParser::Mode::kStrict}) {
    for (bool per_packet : {true, false}) {
      const std::string how = mode_name(mode) + (per_packet ? " per-packet " : " stream ");
      for (const FlowPayloads& capture : capture_payloads()) {
        for (const auto& [key, payloads] : capture) {
          agree.run(payloads, mode, per_packet, how + key.str());
        }
      }
      // The corpus seeds back to back, then with every third seed cut in
      // half so frames straddle feeds and garbage forces resyncs.
      std::vector<Bytes> seeds;
      for (const corpus::Seed* seed : corpus::seeds_for(corpus::Category::kIec104)) {
        seeds.push_back(seed->bytes);
        if (seeds.size() % 3 == 0 && seed->bytes.size() > 3) {
          seeds.push_back(Bytes(seed->bytes.begin(),
                                seed->bytes.begin() + static_cast<std::ptrdiff_t>(seed->bytes.size() / 2)));
        }
      }
      agree.run(seeds, mode, per_packet, how + "corpus seeds");
    }
  }
  EXPECT_EQ(agree.first_mismatch(), "");
  EXPECT_GT(agree.apdus(), 20000u);
  EXPECT_GT(agree.failures(), 0u);
  EXPECT_GT(agree.legacy(), 0u);
}

}  // namespace
}  // namespace uncharted::iec104
