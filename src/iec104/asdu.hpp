// ASDU (Application Service Data Unit) model and codec.
//
// The codec is parameterized by a CodecProfile so it can speak both the
// IEC 104 standard layout and the "IEC 101 legacy over TCP" layouts the
// paper found in the wild (§6.1, Fig 7): a 1-octet cause of transmission
// (O53/O58/O28) and a 2-octet information object address (O37).
#pragma once

#include <cstdint>
#include <memory_resource>
#include <optional>
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
  /// pmr so the ingest hot path can arena-allocate object storage per lane
  /// (see util::RecordArena). Default-constructed ASDUs use the default
  /// resource — plain heap — and behave exactly like std::vector; copies
  /// always land on the default resource, so a copied ASDU never pins an
  /// arena.
  std::pmr::vector<InformationObject> objects;

  /// Serializes with the given profile. Returns an error for object counts
  /// > 127 or elements inconsistent with the type.
  Status encode(ByteWriter& w, const CodecProfile& profile = CodecProfile::standard()) const;

  /// Decodes an ASDU expected to fill `r` exactly. Unknown typeIDs and
  /// leftover/missing bytes are errors (this exactness is what lets the
  /// tolerant parser detect which legacy profile a device speaks).
  /// `arena`, when non-null, provides the storage for `objects`; the
  /// returned ASDU (and anything it is moved into) must then not outlive
  /// the arena.
  static Result<Asdu> decode(ByteReader& r,
                             const CodecProfile& profile = CodecProfile::standard(),
                             std::pmr::memory_resource* arena = nullptr);

  std::string str() const;
};

/// Encodes one element (no IOA, no time tag; ClockSync/QueryLog embed
/// their CP56 fields). Fails when the variant does not match the type.
Status encode_element(TypeId t, const ElementValue& v, ByteWriter& w);

/// Decodes one element of the given type.
Result<ElementValue> decode_element(TypeId t, ByteReader& r);

}  // namespace uncharted::iec104
