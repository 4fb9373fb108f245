#include "net/frame.hpp"

namespace uncharted::net {

Result<DecodedFrame> decode_frame(std::span<const std::uint8_t> frame) {
  DecodedFrame out;
  if (decode_frame_into(frame, out)) return out;
  // Rejected: re-run the layered decoders only for the error detail.
  return decode_frame_layered(frame);
}

Result<DecodedFrame> decode_frame_layered(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  auto eth = EthernetHeader::decode(r);
  if (!eth) return eth.error();
  if (eth->ether_type != kEtherTypeIpv4) {
    return Err("not-ipv4-ethertype", std::to_string(eth->ether_type));
  }
  std::size_t ip_start = r.position();
  auto ip = Ipv4Header::decode(r);
  if (!ip) return ip.error();
  if (ip->protocol != kIpProtoTcp) return Err("not-tcp", std::to_string(ip->protocol));

  // The IP total length bounds the TCP segment; captures may carry Ethernet
  // padding beyond it which must not leak into the payload.
  std::size_t ip_total = ip->total_length;
  if (ip_total < Ipv4Header::kSize || ip_start + ip_total > frame.size()) {
    return Err("bad-ip-length", std::to_string(ip_total));
  }
  auto tcp = TcpHeader::decode(r);
  if (!tcp) return tcp.error();

  std::size_t payload_start = r.position();
  std::size_t segment_end = ip_start + ip_total;
  if (payload_start > segment_end) return Err("bad-tcp-length");

  DecodedFrame out;
  out.eth = eth.value();
  out.ip = ip.value();
  out.tcp = tcp.value();
  out.payload = frame.subspan(payload_start, segment_end - payload_start);
  return out;
}

std::optional<std::pair<Ipv4Addr, Ipv4Addr>> peek_ipv4_pair(
    std::span<const std::uint8_t> frame) {
  // Ethernet (14) + IPv4 fixed header (20): src at 26, dst at 30.
  constexpr std::size_t kSrcOffset = EthernetHeader::kSize + 12;
  if (frame.size() < kSrcOffset + 8) return std::nullopt;
  if (load_u16be(frame.data() + 12) != kEtherTypeIpv4) return std::nullopt;
  Ipv4Addr src{load_u32be(frame.data() + kSrcOffset)};
  Ipv4Addr dst{load_u32be(frame.data() + kSrcOffset + 4)};
  return std::make_pair(src, dst);
}

std::vector<std::uint8_t> build_tcp_frame(const TcpSegmentSpec& spec) {
  Ipv4Header ip;
  ip.src = spec.src_ip;
  ip.dst = spec.dst_ip;
  ip.identification = spec.ip_id;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize + TcpHeader::kSize +
                                               spec.payload.size());

  TcpHeader tcp;
  tcp.src_port = spec.src_port;
  tcp.dst_port = spec.dst_port;
  tcp.seq = spec.seq;
  tcp.ack = spec.ack;
  tcp.flags = spec.flags;
  tcp.window = spec.window;

  EthernetHeader eth;
  eth.src = spec.src_mac;
  eth.dst = spec.dst_mac;

  ByteWriter w(EthernetHeader::kSize + ip.total_length);
  eth.encode(w);
  ip.encode(w);
  tcp.encode(w, ip, spec.payload);
  w.bytes(spec.payload);
  return w.take();
}

}  // namespace uncharted::net
