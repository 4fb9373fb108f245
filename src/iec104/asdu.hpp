// ASDU (Application Service Data Unit) model and codec.
//
// The codec is parameterized by a CodecProfile so it can speak both the
// IEC 104 standard layout and the "IEC 101 legacy over TCP" layouts the
// paper found in the wild (§6.1, Fig 7): a 1-octet cause of transmission
// (O53/O58/O28) and a 2-octet information object address (O37).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "iec104/elements.hpp"
#include "util/bytes.hpp"
#include "util/expected.hpp"

namespace uncharted::iec104 {

/// Field widths used when encoding/decoding an ASDU.
struct CodecProfile {
  int cot_octets = 2;  ///< 2 = standard (cause + originator); 1 = IEC 101 legacy
  int ioa_octets = 3;  ///< 3 = standard; 2 = IEC 101 legacy
  int ca_octets = 2;   ///< common address; IEC 104 fixes this at 2

  static CodecProfile standard() { return {2, 3, 2}; }
  /// O53/O58/O28 layout: single-octet COT.
  static CodecProfile legacy_cot() { return {1, 3, 2}; }
  /// O37 layout: two-octet IOA.
  static CodecProfile legacy_ioa() { return {2, 2, 2}; }
  /// Fully IEC-101-style addressing over TCP.
  static CodecProfile legacy_both() { return {1, 2, 2}; }

  bool is_standard() const { return cot_octets == 2 && ioa_octets == 3 && ca_octets == 2; }
  std::string str() const;
  bool operator==(const CodecProfile&) const = default;

  /// The one-octet form a compact record stores: bit 0 set for a 1-octet
  /// COT, bit 1 for a 2-octet IOA, bit 2 for a 1-octet common address, so
  /// the standard profile is 0. Exact for codable() profiles only.
  std::uint8_t code() const {
    return static_cast<std::uint8_t>((cot_octets == 2 ? 0 : 1) | (ioa_octets == 3 ? 0 : 2) |
                                     (ca_octets == 2 ? 0 : 4));
  }
  static CodecProfile from_code(std::uint8_t code) {
    return {(code & 1) != 0 ? 1 : 2, (code & 2) != 0 ? 2 : 3, (code & 4) != 0 ? 1 : 2};
  }
  /// True iff every width is one the codec reads (COT 1/2, IOA 2/3, CA 1/2).
  bool codable() const { return from_code(code()) == *this; }
};

/// One information object: address + element + optional time tag.
struct InformationObject {
  std::uint32_t ioa = 0;
  ElementValue value;
  std::optional<Cp56Time2a> time;  ///< present iff has_time_tag(asdu.type)
};

/// Cause-of-transmission field.
struct CauseOfTransmission {
  Cause cause = Cause::kSpontaneous;
  bool negative = false;           ///< P/N bit
  bool test = false;               ///< T bit
  std::uint8_t originator = 0;     ///< second octet (standard profile only)

  std::string str() const;
  bool operator==(const CauseOfTransmission&) const = default;
};

/// A decoded ASDU.
struct Asdu {
  TypeId type = TypeId::M_ME_NC_1;
  bool sequence = false;  ///< SQ bit: objects share a base IOA
  CauseOfTransmission cot{};
  std::uint16_t common_address = 0;
  std::vector<InformationObject> objects;

  /// Serializes with the given profile. Returns an error for object counts
  /// > 127 or elements inconsistent with the type.
  Status encode(ByteWriter& w, const CodecProfile& profile = CodecProfile::standard()) const;

  /// Decodes an ASDU expected to fill `r` exactly. Unknown typeIDs and
  /// leftover/missing bytes are errors (this exactness is what lets the
  /// tolerant parser detect which legacy profile a device speaks).
  static Result<Asdu> decode(ByteReader& r,
                             const CodecProfile& profile = CodecProfile::standard());

  std::string str() const;
};

/// Read-only view of an ASDU: of an owning Asdu, or of the header fields
/// and arena-held objects of a ParsedApdu. Validation, the plausibility
/// vote and the encoder read ASDUs through it, so the compact ingest
/// record never has to be copied back into an Asdu.
struct AsduView {
  TypeId type = TypeId::M_ME_NC_1;
  bool sequence = false;
  CauseOfTransmission cot{};
  std::uint16_t common_address = 0;
  std::span<const InformationObject> objects;

  AsduView() = default;
  AsduView(TypeId type_id, bool sq, CauseOfTransmission c, std::uint16_t ca,
           std::span<const InformationObject> objs)
      : type(type_id), sequence(sq), cot(c), common_address(ca), objects(objs) {}
  AsduView(const Asdu& asdu)  // NOLINT(google-explicit-constructor)
      : type(asdu.type),
        sequence(asdu.sequence),
        cot(asdu.cot),
        common_address(asdu.common_address),
        objects(asdu.objects) {}

  /// What Asdu::str() prints.
  std::string str() const;
};

/// Asdu::encode over a view.
Status encode_asdu(const AsduView& asdu, ByteWriter& w,
                   const CodecProfile& profile = CodecProfile::standard());

/// Encodes one element (no IOA, no time tag; ClockSync/QueryLog embed
/// their CP56 fields). Fails when the variant does not match the type.
Status encode_element(TypeId t, const ElementValue& v, ByteWriter& w);

/// Decodes one element of the given type.
Result<ElementValue> decode_element(TypeId t, ByteReader& r);

}  // namespace uncharted::iec104
