// libFuzzer harness for the capture ingest path: Ethernet/IPv4/TCP frame
// decoding, pcap buffer parsing, and TCP stream reassembly of whatever
// frames survive decoding.
//
// Every frame is decoded twice, by the fixed-offset decode_frame_into and
// by the layered ByteReader reference (decode_frame_layered), and the
// harness traps when they disagree on acceptance, on any header field or
// on the payload span. Each input is also checked at every prefix length
// and with its IPv4 checksum rewritten, so random header mutations reach
// the checks that sit behind the checksum.
#include <cstdint>
#include <span>
#include <vector>

#include "corpus/corpus.hpp"
#include "net/frame.hpp"
#include "net/pcap.hpp"
#include "net/reassembly.hpp"

namespace {

using namespace uncharted;

void check_decoders_agree(std::span<const std::uint8_t> frame) {
  net::DecodedFrame fast;
  const bool fast_ok = net::decode_frame_into(frame, fast);
  auto layered = net::decode_frame_layered(frame);
  if (fast_ok != layered.ok()) __builtin_trap();
  if (fast_ok && !(fast == *layered)) __builtin_trap();
}

/// Each prefix is copied into a buffer of exactly its length, so a
/// sanitizer build also traps a read past a cut frame's end.
void check_every_prefix(std::span<const std::uint8_t> frame) {
  for (std::size_t len = 0; len <= frame.size(); ++len) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(len));
    check_decoders_agree(cut);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  std::span<const std::uint8_t> input(data, size);

  const auto no_sink = [](const net::FlowKey&, Timestamp,
                          std::span<const std::uint8_t>) {};

  check_every_prefix(input);
  std::vector<std::uint8_t> refreshed(input.begin(), input.end());
  corpus::refresh_ipv4_checksum(refreshed);
  check_every_prefix(refreshed);

  auto frame = net::decode_frame(input);
  if (frame.ok()) {
    net::TcpReassembler reassembler(no_sink);
    reassembler.add(0, *frame);
  }

  auto cursor = net::PcapCursor::open(input);
  if (cursor.ok()) {
    net::TcpReassembler reassembler(no_sink);
    Timestamp ts = 0;
    net::FrameView packet;
    while (cursor->next(packet)) {
      check_decoders_agree(packet.data);
      auto decoded = net::decode_frame(packet.data);
      if (decoded.ok()) reassembler.add(ts++, *decoded);
    }
  }
  return 0;
}
