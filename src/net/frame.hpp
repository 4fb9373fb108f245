// Decoded frame view: Ethernet + IPv4 + TCP + payload, with helpers to
// build frames (used by the simulator) and decode them (used by analysis).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/headers.hpp"
#include "util/bytes.hpp"
#include "util/expected.hpp"
#include "util/timebase.hpp"

namespace uncharted::net {

/// Fully decoded TCP/IPv4/Ethernet frame. Payload references the caller's
/// frame buffer; the buffer must outlive the DecodedFrame.
struct DecodedFrame {
  EthernetHeader eth;
  Ipv4Header ip;
  TcpHeader tcp;
  std::span<const std::uint8_t> payload;

  /// Equal headers, and payloads that are the same span of the same buffer.
  bool operator==(const DecodedFrame& o) const {
    return eth == o.eth && ip == o.ip && tcp == o.tcp &&
           payload.data() == o.payload.data() && payload.size() == o.payload.size();
  }
};

/// Decodes an Ethernet frame expected to carry IPv4+TCP.
/// Errors: non-IPv4 ethertype, non-TCP protocol, truncation, bad checksum.
Result<DecodedFrame> decode_frame(std::span<const std::uint8_t> frame);

/// The same decode through the per-layer ByteReader decoders
/// (EthernetHeader/Ipv4Header/TcpHeader::decode), one checked read per
/// field. decode_frame() takes its error detail from here, and it is the
/// reference decode_frame_into() is tested against.
Result<DecodedFrame> decode_frame_layered(std::span<const std::uint8_t> frame);

/// Fast-path decode: fills `out` and returns true, or returns false leaving
/// `out` unspecified. Accepts exactly the frames decode_frame_layered()
/// accepts and fills the same fields and payload span, but checks each
/// header's length once and reads its fields at fixed offsets, with no
/// Result (and no error detail) per field. Every per-packet ingest loop
/// runs this; decode_frame() routes its success path through it.
inline bool decode_frame_into(std::span<const std::uint8_t> frame,
                              DecodedFrame& out) {
  constexpr std::size_t kEth = EthernetHeader::kSize;
  const std::uint8_t* const p = frame.data();
  const std::size_t n = frame.size();
  if (n < kEth + Ipv4Header::kSize) return false;
  if (load_u16be(p + 12) != kEtherTypeIpv4) return false;

  const std::uint8_t* const ip = p + kEth;
  if ((ip[0] >> 4) != 4) return false;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  // The IP total length bounds the TCP segment; captures may carry Ethernet
  // padding beyond it which must not leak into the payload. The segment
  // must hold the IPv4 header and at least a bare TCP header, which also
  // puts every field read below inside the frame.
  const std::size_t ip_total = load_u16be(ip + 2);
  if (ihl < Ipv4Header::kSize || ip_total < ihl + TcpHeader::kSize ||
      kEth + ip_total > n) {
    return false;
  }
  const std::uint16_t flags_frag = load_u16be(ip + 6);
  if ((flags_frag & 0x3fff) != 0) return false;  // MF set or nonzero offset
  if (ip[9] != kIpProtoTcp) return false;
  if (internet_checksum({ip, ihl}) != 0) return false;

  const std::uint8_t* const tcp = ip + ihl;
  const std::size_t data_offset = static_cast<std::size_t>(tcp[12] >> 4) * 4;
  if (data_offset < TcpHeader::kSize || ihl + data_offset > ip_total) return false;

  std::memcpy(out.eth.dst.octets.data(), p, 6);
  std::memcpy(out.eth.src.octets.data(), p + 6, 6);
  out.eth.ether_type = kEtherTypeIpv4;
  out.ip.dscp_ecn = ip[1];
  out.ip.total_length = static_cast<std::uint16_t>(ip_total);
  out.ip.identification = load_u16be(ip + 4);
  out.ip.flags = static_cast<std::uint8_t>(flags_frag >> 13);
  out.ip.fragment_offset = 0;
  out.ip.ttl = ip[8];
  out.ip.protocol = kIpProtoTcp;
  out.ip.checksum = load_u16be(ip + 10);
  out.ip.src.value = load_u32be(ip + 12);
  out.ip.dst.value = load_u32be(ip + 16);
  out.tcp.src_port = load_u16be(tcp);
  out.tcp.dst_port = load_u16be(tcp + 2);
  out.tcp.seq = load_u32be(tcp + 4);
  out.tcp.ack = load_u32be(tcp + 8);
  out.tcp.flags = tcp[13];
  out.tcp.window = load_u16be(tcp + 14);
  out.tcp.checksum = load_u16be(tcp + 16);
  out.tcp.urgent = load_u16be(tcp + 18);
  const std::size_t payload_start = kEth + ihl + data_offset;
  out.payload = frame.subspan(payload_start, kEth + ip_total - payload_start);
  return true;
}

/// Cheapest possible look at a raw frame: the IPv4 source/destination
/// addresses, if the buffer is long enough to carry an IPv4 header after
/// Ethernet. No checksum validation, no TCP decode — this exists so the
/// shard dispatcher can route a packet by endpoint pair without paying for
/// (or depending on the success of) the full decode.
std::optional<std::pair<Ipv4Addr, Ipv4Addr>> peek_ipv4_pair(
    std::span<const std::uint8_t> frame);

/// Parameters for building one TCP segment as a full Ethernet frame.
struct TcpSegmentSpec {
  MacAddr src_mac;
  MacAddr dst_mac;
  Ipv4Addr src_ip;
  Ipv4Addr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  std::uint16_t ip_id = 0;
  std::span<const std::uint8_t> payload;
};

/// Builds a complete frame with valid lengths and checksums.
std::vector<std::uint8_t> build_tcp_frame(const TcpSegmentSpec& spec);

}  // namespace uncharted::net
