// Ethernet II, IPv4 and TCP header codecs.
//
// Implemented from scratch (no libpcap/netinet) so the toolkit is fully
// self-contained and tests can construct malformed frames byte by byte.
// Only what SCADA captures need is supported: Ethernet II + IPv4 + TCP,
// no options beyond raw bytes, no fragmentation reassembly (SCADA APDUs are
// far below any sane MTU; fragments are surfaced as errors).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/expected.hpp"

namespace uncharted::net {

/// 48-bit MAC address.
struct MacAddr {
  std::array<std::uint8_t, 6> octets{};

  static MacAddr from_u64(std::uint64_t v);
  std::string str() const;
  bool operator==(const MacAddr&) const = default;
};

/// IPv4 address in host byte order.
struct Ipv4Addr {
  std::uint32_t value = 0;

  static Ipv4Addr from_octets(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d);
  /// Parses dotted-quad, e.g. "10.0.1.17".
  static Result<Ipv4Addr> parse(const std::string& s);
  std::string str() const;
  bool operator==(const Ipv4Addr&) const = default;
  auto operator<=>(const Ipv4Addr&) const = default;
};

constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

struct EthernetHeader {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ether_type = kEtherTypeIpv4;

  static constexpr std::size_t kSize = 14;
  void encode(ByteWriter& w) const;
  static Result<EthernetHeader> decode(ByteReader& r);
  bool operator==(const EthernetHeader&) const = default;
};

constexpr std::uint8_t kIpProtoTcp = 6;

struct Ipv4Header {
  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = 0;  ///< header + payload, filled by encode helpers
  std::uint16_t identification = 0;
  std::uint8_t flags = 0x02;       ///< DF set by default
  std::uint16_t fragment_offset = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kIpProtoTcp;
  std::uint16_t checksum = 0;      ///< computed on encode, verified on decode
  Ipv4Addr src;
  Ipv4Addr dst;

  static constexpr std::size_t kSize = 20;  ///< we neither emit nor keep options
  /// Encodes with a freshly computed checksum.
  void encode(ByteWriter& w) const;
  /// Decodes and checks version/IHL/checksum; skips options if present.
  static Result<Ipv4Header> decode(ByteReader& r);
  bool operator==(const Ipv4Header&) const = default;
};

/// TCP flag bits.
enum TcpFlags : std::uint8_t {
  kTcpFin = 0x01,
  kTcpSyn = 0x02,
  kTcpRst = 0x04,
  kTcpPsh = 0x08,
  kTcpAck = 0x10,
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  std::uint16_t checksum = 0;
  std::uint16_t urgent = 0;

  static constexpr std::size_t kSize = 20;  ///< no options emitted
  bool syn() const { return flags & kTcpSyn; }
  bool fin() const { return flags & kTcpFin; }
  bool rst() const { return flags & kTcpRst; }
  bool ack_set() const { return flags & kTcpAck; }

  /// Encodes with checksum over the pseudo-header + payload.
  void encode(ByteWriter& w, const Ipv4Header& ip,
              std::span<const std::uint8_t> payload) const;
  /// Decodes, skipping options per data-offset; does not verify checksum
  /// (captures routinely contain offloaded/zero checksums).
  static Result<TcpHeader> decode(ByteReader& r);
  bool operator==(const TcpHeader&) const = default;
};

/// RFC 1071 Internet checksum over a byte range.
inline std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i] << 8);
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

/// TCP checksum with IPv4 pseudo-header.
std::uint16_t tcp_checksum(const Ipv4Header& ip, std::span<const std::uint8_t> tcp_segment);

// The three header decoders are inline: they run once per captured packet
// and an out-of-line call per layer was visible in the ingest profile.

inline Result<EthernetHeader> EthernetHeader::decode(ByteReader& r) {
  EthernetHeader h;
  auto dst = r.bytes(6);
  if (!dst) return dst.error();
  std::copy(dst->begin(), dst->end(), h.dst.octets.begin());
  auto src = r.bytes(6);
  if (!src) return src.error();
  std::copy(src->begin(), src->end(), h.src.octets.begin());
  auto type = r.u16be();
  if (!type) return type.error();
  h.ether_type = type.value();
  return h;
}

inline Result<Ipv4Header> Ipv4Header::decode(ByteReader& r) {
  std::size_t start = r.position();
  auto ver_ihl = r.u8();
  if (!ver_ihl) return ver_ihl.error();
  if ((ver_ihl.value() >> 4) != 4) return Err("not-ipv4");
  std::size_t ihl = static_cast<std::size_t>(ver_ihl.value() & 0x0f) * 4;
  if (ihl < kSize) return Err("bad-ihl", std::to_string(ihl));

  Ipv4Header h;
  auto dscp = r.u8();
  auto len = r.u16be();
  auto id = r.u16be();
  auto fl = r.u16be();
  auto ttl = r.u8();
  auto proto = r.u8();
  auto sum = r.u16be();
  auto src = r.u32be();
  auto dst = r.u32be();
  if (!dst) return Err("truncated", "ipv4 header");
  h.dscp_ecn = dscp.value();
  h.total_length = len.value();
  h.identification = id.value();
  h.flags = static_cast<std::uint8_t>(fl.value() >> 13);
  h.fragment_offset = static_cast<std::uint16_t>(fl.value() & 0x1fff);
  h.ttl = ttl.value();
  h.protocol = proto.value();
  h.checksum = sum.value();
  h.src.value = src.value();
  h.dst.value = dst.value();

  if (h.fragment_offset != 0 || (h.flags & 0x01)) {
    return Err("fragmented", "IPv4 fragments unsupported in SCADA captures");
  }
  if (ihl > kSize) {
    auto skipped = r.skip(ihl - kSize);
    if (!skipped.ok()) return skipped.error();
  }
  // Verify checksum over the header bytes as captured.
  std::size_t end = r.position();
  r.seek(start);
  auto raw = r.bytes(end - start);
  if (internet_checksum(raw.value()) != 0) return Err("bad-ip-checksum");
  return h;
}

inline Result<TcpHeader> TcpHeader::decode(ByteReader& r) {
  TcpHeader h;
  auto sp = r.u16be();
  auto dp = r.u16be();
  auto seq = r.u32be();
  auto ack = r.u32be();
  auto off = r.u8();
  auto flags = r.u8();
  auto win = r.u16be();
  auto sum = r.u16be();
  auto urg = r.u16be();
  if (!urg) return Err("truncated", "tcp header");
  h.src_port = sp.value();
  h.dst_port = dp.value();
  h.seq = seq.value();
  h.ack = ack.value();
  h.flags = flags.value();
  h.window = win.value();
  h.checksum = sum.value();
  h.urgent = urg.value();
  std::size_t data_offset = static_cast<std::size_t>(off.value() >> 4) * 4;
  if (data_offset < kSize) return Err("bad-tcp-offset", std::to_string(data_offset));
  if (data_offset > kSize) {
    auto skipped = r.skip(data_offset - kSize);
    if (!skipped.ok()) return skipped.error();
  }
  return h;
}

}  // namespace uncharted::net
