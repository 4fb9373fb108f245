#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "sim/capture.hpp"

namespace uncharted::net {
namespace {

TcpSegmentSpec sample_spec(std::span<const std::uint8_t> payload) {
  TcpSegmentSpec spec;
  spec.src_mac = MacAddr::from_u64(0x020000000001);
  spec.dst_mac = MacAddr::from_u64(0x020000000002);
  spec.src_ip = Ipv4Addr::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Addr::from_octets(10, 1, 0, 5);
  spec.src_port = 50000;
  spec.dst_port = 2404;
  spec.seq = 1000;
  spec.ack = 2000;
  spec.flags = kTcpPsh | kTcpAck;
  spec.payload = payload;
  return spec;
}

TEST(Frame, BuildDecodeRoundTrip) {
  std::uint8_t payload[] = {0x68, 0x04, 0x43, 0x00, 0x00, 0x00};
  auto frame = build_tcp_frame(sample_spec(payload));
  EXPECT_EQ(frame.size(),
            EthernetHeader::kSize + Ipv4Header::kSize + TcpHeader::kSize + sizeof(payload));

  auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().str();
  EXPECT_EQ(decoded->ip.src.str(), "10.0.0.1");
  EXPECT_EQ(decoded->ip.dst.str(), "10.1.0.5");
  EXPECT_EQ(decoded->tcp.src_port, 50000);
  EXPECT_EQ(decoded->tcp.dst_port, 2404);
  EXPECT_EQ(decoded->tcp.seq, 1000u);
  ASSERT_EQ(decoded->payload.size(), sizeof(payload));
  EXPECT_TRUE(std::equal(decoded->payload.begin(), decoded->payload.end(), payload));
}

TEST(Frame, EmptyPayload) {
  auto frame = build_tcp_frame(sample_spec({}));
  auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(Frame, EthernetPaddingDoesNotLeakIntoPayload) {
  std::uint8_t payload[] = {1, 2, 3};
  auto frame = build_tcp_frame(sample_spec(payload));
  // Pad to the Ethernet minimum as a switch would.
  while (frame.size() < 60) frame.push_back(0x00);
  auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->payload.size(), 3u);
}

TEST(Frame, RejectsNonIpv4EtherType) {
  auto frame = build_tcp_frame(sample_spec({}));
  frame[12] = 0x86;  // 0x86dd = IPv6
  frame[13] = 0xdd;
  auto decoded = decode_frame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "not-ipv4-ethertype");
}

TEST(Frame, RejectsTruncatedFrame) {
  auto frame = build_tcp_frame(sample_spec({}));
  frame.resize(frame.size() - 8);
  EXPECT_FALSE(decode_frame(frame).ok());
}

TEST(Frame, RejectsLyingIpLength) {
  std::uint8_t payload[] = {1, 2, 3, 4};
  auto frame = build_tcp_frame(sample_spec(payload));
  // Claim a total length beyond the actual frame; checksum must be patched
  // so the length check (not the checksum check) fires.
  std::size_t ip_off = EthernetHeader::kSize;
  frame[ip_off + 2] = 0x40;  // total_length = 0x40xx, way beyond
  // Zero out checksum field and recompute over the header.
  frame[ip_off + 10] = 0;
  frame[ip_off + 11] = 0;
  std::uint16_t sum = internet_checksum(
      std::span<const std::uint8_t>(frame.data() + ip_off, Ipv4Header::kSize));
  frame[ip_off + 10] = static_cast<std::uint8_t>(sum >> 8);
  frame[ip_off + 11] = static_cast<std::uint8_t>(sum & 0xff);
  auto decoded = decode_frame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "bad-ip-length");
}

// The fixed-offset decode_frame_into against the layered ByteReader chain
// (decode_frame_layered): the same frames accepted, every field and the payload span
// equal. Inputs are every frame of a 60-s Y1 capture and the corpus frame
// seeds, each cut at every length and put through single-field header
// mutations — raw, and with the IPv4 checksum rewritten so the mutation
// reaches the checks behind it (options-bearing IHL and data offsets then
// decode at shifted offsets).
class DecodeAgreement {
 public:
  /// `describe` runs only for the first disagreement.
  template <typename Describe>
  void check(std::span<const std::uint8_t> frame, Describe&& describe) {
    ++checked_;
    DecodedFrame fast;
    const bool fast_ok = decode_frame_into(frame, fast);
    auto layered = decode_frame_layered(frame);
    if (fast_ok == layered.ok() && (!fast_ok || fast == *layered)) {
      accepted_ += fast_ok ? 1 : 0;
      return;
    }
    if (mismatches_++ > 0) return;
    first_mismatch_ = describe() + " (" + std::to_string(frame.size()) +
                      " bytes): fixed-offset " + (fast_ok ? "accepts" : "rejects") +
                      ", layered " +
                      (layered.ok() ? std::string("accepts")
                                    : "rejects with " + layered.error().str());
    if (fast_ok && layered.ok()) first_mismatch_ += ", fields differ";
  }

  std::size_t checked() const { return checked_; }
  std::size_t accepted() const { return accepted_; }
  std::size_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  std::size_t checked_ = 0;
  std::size_t accepted_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_mismatch_;
};

struct HeaderMutation {
  const char* field;
  std::size_t offset;
  std::vector<std::uint8_t> bytes;  ///< written at `offset`
};

/// Single-field rewrites of the headers the decoder validates. Offsets are
/// from the frame start; the TCP data offset sits behind the frame's own IHL.
std::vector<HeaderMutation> header_mutations(std::span<const std::uint8_t> frame) {
  constexpr std::size_t kIp = EthernetHeader::kSize;
  std::vector<HeaderMutation> out;
  auto add = [&](const char* field, std::size_t offset, std::vector<std::uint8_t> bytes) {
    if (offset + bytes.size() <= frame.size()) out.push_back({field, offset, std::move(bytes)});
  };
  auto add_u16 = [&](const char* field, std::size_t offset, std::size_t v) {
    add(field, offset, {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)});
  };
  for (std::size_t type : {0x86ddu, 0x0806u, 0x0000u, 0x0801u, 0x0900u}) {
    add_u16("ethertype", 12, type);
  }
  for (std::uint8_t v : {0x45, 0x46, 0x47, 0x48, 0x4f, 0x44, 0x43, 0x40, 0x65, 0x55,
                         0x35, 0x05}) {
    add("version/IHL", kIp, {v});
  }
  if (frame.size() < kIp + Ipv4Header::kSize) return out;
  const std::size_t ihl = static_cast<std::size_t>(frame[kIp] & 0x0f) * 4;
  const std::size_t total = static_cast<std::size_t>(frame[kIp + 2]) << 8 | frame[kIp + 3];
  const std::size_t n = frame.size();
  for (std::size_t v : {std::size_t{0}, std::size_t{19}, std::size_t{20}, std::size_t{39},
                        std::size_t{40}, std::size_t{43}, std::size_t{44}, total - 1,
                        total + 1, n - kIp - 1, n - kIp, n - kIp + 1, std::size_t{0xffff}}) {
    add_u16("total length", kIp + 2, v & 0xffff);
  }
  for (std::size_t v : {0x2000u, 0x0001u, 0x0008u, 0x1fffu, 0x4000u, 0x8000u, 0x6000u,
                        0xc000u, 0x0000u, 0x2001u}) {
    add_u16("flags/fragment offset", kIp + 6, v);
  }
  add("IPv4 checksum", kIp + 10, {static_cast<std::uint8_t>(frame[kIp + 10] ^ 0x01)});
  add("IPv4 checksum", kIp + 11, {static_cast<std::uint8_t>(frame[kIp + 11] ^ 0x80)});
  for (std::uint8_t v : {17, 1, 0, 6, 0x86}) add("protocol", kIp + 9, {v});
  for (std::uint8_t v : {0x00, 0x10, 0x40, 0x4f, 0x50, 0x5f, 0x60, 0x70, 0x80, 0xa0, 0xf0}) {
    add("TCP data offset", kIp + ihl + 12, {v});
  }
  return out;
}

/// Checks every prefix of `bytes`. Each prefix is copied to the end of a
/// buffer of the frame's size, so its last byte is the allocation's last
/// byte and a sanitizer build also sees a read past a cut frame's end.
template <typename Describe>
void check_prefixes(DecodeAgreement& agree, std::span<const std::uint8_t> bytes,
                    Describe&& describe) {
  std::vector<std::uint8_t> buffer(bytes.size());
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const std::span<std::uint8_t> cut = std::span(buffer).last(len);
    std::copy_n(bytes.begin(), len, cut.begin());
    agree.check(cut, describe);
  }
}

void check_frame(DecodeAgreement& agree, const std::vector<std::uint8_t>& frame,
                 const std::string& name, bool truncate_mutants) {
  check_prefixes(agree, frame, [&] { return name + " cut"; });
  std::vector<std::uint8_t> mutant;
  for (const HeaderMutation& m : header_mutations(frame)) {
    mutant.assign(frame.begin(), frame.end());
    std::copy(m.bytes.begin(), m.bytes.end(), mutant.begin() + static_cast<std::ptrdiff_t>(m.offset));
    for (bool refresh : {false, true}) {
      if (refresh) corpus::refresh_ipv4_checksum(mutant);
      auto what = [&] {
        return name + " " + m.field + " @" + std::to_string(m.offset) +
               (refresh ? " (checksum rewritten)" : "");
      };
      if (truncate_mutants) {
        check_prefixes(agree, mutant, what);
      } else {
        agree.check(mutant, what);
      }
    }
  }
}

TEST(FrameDecode, FixedOffsetMatchesLayeredDecoders) {
  sim::CaptureConfig cc = sim::CaptureConfig::y1(60.0);
  const sim::CaptureResult capture = sim::generate_capture(cc);
  ASSERT_GT(capture.packets.size(), 1000u);

  DecodeAgreement agree;
  // Every frame is cut at every length and mutated whole; the first 64
  // frames and the corpus seeds also have every mutant cut at every
  // length.
  constexpr std::size_t kTruncatedMutantFrames = 64;
  for (std::size_t i = 0; i < capture.packets.size(); ++i) {
    check_frame(agree, capture.packets[i].data, "Y1 frame " + std::to_string(i),
                i < kTruncatedMutantFrames);
  }
  for (const corpus::Seed* seed : corpus::seeds_for(corpus::Category::kFrame)) {
    check_frame(agree, seed->bytes, "seed " + seed->name, true);
  }
  EXPECT_EQ(agree.mismatches(), 0u) << agree.first_mismatch();
  // The sweep must exercise both outcomes.
  EXPECT_GT(agree.accepted(), capture.packets.size());
  EXPECT_LT(agree.accepted(), agree.checked());
}

TEST(FrameDecode, OptionsBearingFrameDecodesPastItsOptions) {
  const corpus::Seed* seed = nullptr;
  for (const corpus::Seed* s : corpus::seeds_for(corpus::Category::kFrame)) {
    if (s->name == "eth_ipv4_tcp_options") seed = s;
  }
  ASSERT_NE(seed, nullptr);
  DecodedFrame out;
  ASSERT_TRUE(decode_frame_into(seed->bytes, out));
  EXPECT_EQ(out.tcp.dst_port, 2404);
  // 4 bytes of IPv4 options and 4 of TCP options precede the 6-byte APDU.
  EXPECT_EQ(out.payload.data(), seed->bytes.data() + EthernetHeader::kSize + 24 + 24);
  ASSERT_EQ(out.payload.size(), 6u);
  EXPECT_EQ(out.payload[0], 0x68);
}

}  // namespace
}  // namespace uncharted::net
