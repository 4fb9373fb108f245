// APDU / APCI: the IEC 104 transport frame (start 0x68, length, 4 control
// octets, optional ASDU), covering I-, S- and U-format messages.
//
// Two decoders read it. decode_apdu_layered() is the ByteReader chain: one
// checked read per field and an Error naming the first bad one. It yields
// an owning Apdu and is the reference the fast path is tested against.
// The ingest path runs check_apdu() + decode_objects(): one length check
// per frame, the APCI and the fixed ASDU header loaded at fixed offsets,
// and an exact-length test that rejects a wrong codec profile before any
// information object is decoded. They yield a ParsedApdu, the compact
// form every record stores.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "iec104/asdu.hpp"
#include "util/bytes.hpp"
#include "util/expected.hpp"

namespace uncharted::iec104 {

enum class ApduFormat : std::uint8_t { kI, kS, kU };

/// A decoded APDU that owns its ASDU. For I-format, `asdu` is present.
struct Apdu {
  ApduFormat format = ApduFormat::kU;
  std::uint16_t send_seq = 0;     ///< N(S), I-format only (0..32767)
  std::uint16_t recv_seq = 0;     ///< N(R), I- and S-format
  UFunction u_function = UFunction::kTestFrAct;  ///< U-format only
  std::optional<Asdu> asdu;       ///< I-format payload

  /// Builds an I-format APDU.
  static Apdu make_i(std::uint16_t ns, std::uint16_t nr, Asdu asdu);
  /// Builds an S-format acknowledgement.
  static Apdu make_s(std::uint16_t nr);
  /// Builds a U-format control message.
  static Apdu make_u(UFunction f);

  /// Serializes including the 0x68 start byte and length octet.
  /// Fails if the ASDU exceeds the 253-octet APDU limit.
  Result<std::vector<std::uint8_t>> encode(
      const CodecProfile& profile = CodecProfile::standard()) const;

  /// Paper Table 4 token: "S", "U1".."U32", or "I_36".
  std::string token() const;

  std::string str() const;
};

/// One parsed APDU as a record stores it: 24 bytes, trivially copyable.
/// The APCI, the fixed ASDU header (kept as its wire octets) and the codec
/// profile that decoded it sit inline; the information objects live in the
/// arena the decoder was given, and their count is the VSQ's. A ParsedApdu
/// must not outlive that arena.
struct ParsedApdu {
  /// I-format: the first of object_count() objects (null for S/U).
  const InformationObject* object_data = nullptr;
  std::uint16_t send_seq = 0;       ///< N(S), I-format only
  std::uint16_t recv_seq = 0;       ///< N(R), I- and S-format
  std::uint16_t wire_size = 0;      ///< bytes on the wire incl. start+length (<= 257)
  std::uint16_t common_address = 0;
  ApduFormat format = ApduFormat::kU;
  UFunction u_function = UFunction::kTestFrAct;  ///< U-format only
  TypeId type = TypeId::M_ME_NC_1;  ///< I-format only, as are the octets below
  std::uint8_t vsq = 0;             ///< SQ bit and object count
  std::uint8_t cot_octet = 0;       ///< cause, P/N and T bits
  std::uint8_t originator = 0;      ///< second COT octet (2-octet COT only)
  std::uint8_t profile_code = 0;    ///< CodecProfile::code() of the decoding profile
  bool compliant = true;  ///< standard profile, or no ASDU to speak of

  bool is_i() const { return format == ApduFormat::kI; }
  CodecProfile profile() const { return CodecProfile::from_code(profile_code); }
  bool sequence() const { return (vsq & 0x80) != 0; }
  std::size_t object_count() const { return vsq & 0x7fu; }
  std::span<const InformationObject> objects() const { return {object_data, object_count()}; }
  Cause cause() const { return static_cast<Cause>(cot_octet & 0x3f); }
  CauseOfTransmission cot() const {
    return {cause(), (cot_octet & 0x40) != 0, (cot_octet & 0x80) != 0, originator};
  }
  /// The ASDU of an I-format APDU.
  AsduView asdu() const {
    return {type, sequence(), cot(), common_address, objects()};
  }

  /// Apdu::token() of the same APDU, with no ASDU copy.
  std::string token() const;
  /// Apdu::str() of the same APDU.
  std::string str() const;
  /// Apdu::encode() under profile().
  Result<std::vector<std::uint8_t>> encode() const;

  /// A view of `apdu` as decoded under `profile`: its objects stay in
  /// `apdu`, which must outlive the view. An ASDU of more than 127 objects
  /// (not encodable) is seen through its first 127.
  static ParsedApdu view_of(const Apdu& apdu,
                            const CodecProfile& profile = CodecProfile::standard());
};

/// The reference decoder: exactly one APDU from `r` (which may contain more
/// bytes after it; only the framed length is consumed), the ASDU of an
/// I-format APDU decoded with `profile`, one bounds-checked ByteReader read
/// per field and an Error naming the first field that fails.
Result<Apdu> decode_apdu_layered(ByteReader& r,
                                 const CodecProfile& profile = CodecProfile::standard());

/// Fast-path check of one framed APDU under `profile`. True iff
/// decode_apdu_layered() accepts `frame` and consumes all of it. Fills
/// every field of `out` except `object_data`. The frame is length-checked
/// once, the header fields are loaded at fixed offsets, and the objects'
/// exact length (and their CP56 fields' ranges) are checked without
/// decoding them or allocating. No Error is built.
bool check_apdu(std::span<const std::uint8_t> frame, const CodecProfile& profile,
                ParsedApdu& out);

/// Decodes the information objects of an I-format frame that check_apdu()
/// accepted under the same profile into `arena`, and points
/// `out.object_data` at them. No-op for S/U frames.
void decode_objects(std::span<const std::uint8_t> frame, const CodecProfile& profile,
                    std::pmr::memory_resource* arena, ParsedApdu& out);

/// check_apdu() then decode_objects(): the whole fast decode of one frame.
bool decode_apdu_into(std::span<const std::uint8_t> frame, const CodecProfile& profile,
                      std::pmr::memory_resource* arena, ParsedApdu& out);

}  // namespace uncharted::iec104
