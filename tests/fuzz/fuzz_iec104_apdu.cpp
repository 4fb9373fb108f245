// libFuzzer harness for the IEC 104 APDU/ASDU parser — the paper's core
// tool. Every prefix of the input (up to one octet past the longest APDU)
// is decoded under all four codec profiles
// (standard, O37 2-octet IOA, O53 1-octet COT, both) by the fixed-offset
// decode (check_apdu + decode_objects) and by the layered ByteReader
// reference (decode_apdu_layered); the harness traps when they disagree
// on acceptance or on any decoded field. Each prefix sits at the end of a
// buffer of its own length, so a sanitizer build also traps a read past a
// cut frame. Whatever decodes must survive semantic validation and
// re-encoding; profile detection and the tolerant stream parser, fed the
// bytes split across two feed() calls, run on the whole input.
#include <cstdint>
#include <memory_resource>
#include <span>
#include <vector>

#include "iec104/apdu.hpp"
#include "iec104/parser.hpp"
#include "iec104/validate.hpp"
#include "util/bytes.hpp"

namespace {

using namespace uncharted;

/// Element equality up to encoding, so a NaN float (unequal to itself)
/// still compares by its bits.
bool same_value(iec104::TypeId type, const iec104::ElementValue& a,
                const iec104::ElementValue& b) {
  if (a == b) return true;
  ByteWriter wa;
  ByteWriter wb;
  return a.index() == b.index() && iec104::encode_element(type, a, wa).ok() &&
         iec104::encode_element(type, b, wb).ok() && wa.data() == wb.data();
}

bool same_apdu(const iec104::ParsedApdu& a, const iec104::ParsedApdu& b) {
  if (a.format != b.format || a.send_seq != b.send_seq || a.recv_seq != b.recv_seq ||
      a.u_function != b.u_function || a.type != b.type || a.vsq != b.vsq ||
      a.cot_octet != b.cot_octet || a.originator != b.originator ||
      a.common_address != b.common_address || a.profile_code != b.profile_code ||
      a.compliant != b.compliant || a.wire_size != b.wire_size) {
    return false;
  }
  const auto oa = a.objects();
  const auto ob = b.objects();
  if (oa.size() != ob.size()) return false;
  for (std::size_t i = 0; i < oa.size(); ++i) {
    if (oa[i].ioa != ob[i].ioa || oa[i].time != ob[i].time ||
        !same_value(a.type, oa[i].value, ob[i].value)) {
      return false;
    }
  }
  return true;
}

void check_decoders_agree(std::span<const std::uint8_t> frame,
                          std::pmr::monotonic_buffer_resource& arena) {
  for (const auto& profile : iec104::candidate_profiles()) {
    arena.release();
    iec104::ParsedApdu fast;
    const bool fast_ok = iec104::decode_apdu_into(frame, profile, &arena, fast);
    ByteReader r(frame);
    auto layered = iec104::decode_apdu_layered(r, profile);
    const bool layered_ok = layered.ok() && r.empty();
    if (fast_ok != layered_ok) __builtin_trap();
    if (!fast_ok) continue;
    iec104::ParsedApdu expected = iec104::ParsedApdu::view_of(*layered, profile);
    expected.wire_size = static_cast<std::uint16_t>(frame.size());
    if (!same_apdu(fast, expected)) __builtin_trap();
    if (layered->asdu.has_value()) {
      // Anything that decodes must survive semantic validation and
      // re-encoding (the round trip may legitimately fail for oversized
      // object lists, but must not crash).
      (void)iec104::validate_asdu(*layered->asdu, iec104::Direction::kFromOutstation);
      (void)iec104::validate_asdu(fast.asdu(), iec104::Direction::kFromController);
      (void)layered->encode(profile);
      (void)fast.encode();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  std::span<const std::uint8_t> input(data, size);

  // A framed APDU is at most 2 + 255 octets: both decoders reject every
  // longer prefix on its length alone.
  std::pmr::monotonic_buffer_resource arena;
  for (std::size_t len = 0; len <= size && len <= 2 + 255 + 1; ++len) {
    const std::vector<std::uint8_t> cut(data, data + len);
    check_decoders_agree(cut, arena);
  }

  (void)iec104::detect_profiles(input);

  // Stream parser: same bytes, arbitrary split point derived from input.
  iec104::ApduStreamParser parser;
  std::size_t split = size == 0 ? 0 : data[0] % (size + 1);
  parser.feed(0, input.subspan(0, split));
  parser.feed(1, input.subspan(split));
  return 0;
}
