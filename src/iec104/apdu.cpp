#include "iec104/apdu.hpp"

#include <algorithm>
#include <array>
#include <new>

#include "iec104/seq15.hpp"

namespace uncharted::iec104 {

Apdu Apdu::make_i(std::uint16_t ns, std::uint16_t nr, Asdu a) {
  Apdu apdu;
  apdu.format = ApduFormat::kI;
  apdu.send_seq = seq15(ns);
  apdu.recv_seq = seq15(nr);
  apdu.asdu = std::move(a);
  return apdu;
}

Apdu Apdu::make_s(std::uint16_t nr) {
  Apdu apdu;
  apdu.format = ApduFormat::kS;
  apdu.recv_seq = seq15(nr);
  return apdu;
}

Apdu Apdu::make_u(UFunction f) {
  Apdu apdu;
  apdu.format = ApduFormat::kU;
  apdu.u_function = f;
  return apdu;
}

namespace {

/// The frame of either APDU form; `asdu` is null for S/U.
Result<std::vector<std::uint8_t>> encode_frame(ApduFormat format, std::uint16_t send_seq,
                                               std::uint16_t recv_seq, UFunction u_function,
                                               const AsduView* asdu,
                                               const CodecProfile& profile) {
  ByteWriter body;
  switch (format) {
    case ApduFormat::kI: {
      if (asdu == nullptr) return Err("missing-asdu", "I-format requires an ASDU");
      body.u8(static_cast<std::uint8_t>((send_seq << 1) & 0xfe));
      body.u8(static_cast<std::uint8_t>(send_seq >> 7));
      body.u8(static_cast<std::uint8_t>((recv_seq << 1) & 0xfe));
      body.u8(static_cast<std::uint8_t>(recv_seq >> 7));
      auto st = encode_asdu(*asdu, body, profile);
      if (!st.ok()) return st.error();
      break;
    }
    case ApduFormat::kS: {
      body.u8(0x01);
      body.u8(0x00);
      body.u8(static_cast<std::uint8_t>((recv_seq << 1) & 0xfe));
      body.u8(static_cast<std::uint8_t>(recv_seq >> 7));
      break;
    }
    case ApduFormat::kU: {
      body.u8(static_cast<std::uint8_t>(0x03 | static_cast<std::uint8_t>(u_function)));
      body.u8(0x00);
      body.u8(0x00);
      body.u8(0x00);
      break;
    }
  }
  if (body.size() > kMaxApduLength) {
    return Err("apdu-too-long", std::to_string(body.size()));
  }
  ByteWriter out(body.size() + 2);
  out.u8(kStartByte);
  out.u8(static_cast<std::uint8_t>(body.size()));
  out.bytes(body.view());
  return out.take();
}

/// Paper Table 4 token; `type` is null for an I-format APDU without an ASDU.
std::string token_of(ApduFormat format, UFunction u_function, const TypeId* type) {
  switch (format) {
    case ApduFormat::kS:
      return "S";
    case ApduFormat::kU:
      // Paper Table 4 names: U<function bits> (U1,U2,U4,U8,U16,U32).
      switch (u_function) {
        case UFunction::kStartDtAct: return "U1";
        case UFunction::kStartDtCon: return "U2";
        case UFunction::kStopDtAct: return "U4";
        case UFunction::kStopDtCon: return "U8";
        case UFunction::kTestFrAct: return "U16";
        case UFunction::kTestFrCon: return "U32";
      }
      return "U?";
    case ApduFormat::kI:
      if (type != nullptr) return "I_" + std::to_string(static_cast<int>(*type));
      return "I_?";
  }
  return "?";
}

std::string str_of(ApduFormat format, std::uint16_t send_seq, std::uint16_t recv_seq,
                   UFunction u_function, const AsduView* asdu) {
  std::string out;
  switch (format) {
    case ApduFormat::kS:
      return "S nr=" + std::to_string(recv_seq);
    case ApduFormat::kU:
      return "U " + u_function_name(u_function);
    case ApduFormat::kI:
      out = "I ns=" + std::to_string(send_seq) + " nr=" + std::to_string(recv_seq);
      if (asdu != nullptr) {
        out += ' ';
        out += asdu->str();
      }
      return out;
  }
  return "?";
}

}  // namespace

Result<std::vector<std::uint8_t>> Apdu::encode(const CodecProfile& profile) const {
  const std::optional<AsduView> view =
      asdu ? std::optional<AsduView>(*asdu) : std::nullopt;
  return encode_frame(format, send_seq, recv_seq, u_function, view ? &*view : nullptr,
                      profile);
}

std::string Apdu::token() const {
  return token_of(format, u_function, asdu ? &asdu->type : nullptr);
}

std::string Apdu::str() const {
  const std::optional<AsduView> view =
      asdu ? std::optional<AsduView>(*asdu) : std::nullopt;
  return str_of(format, send_seq, recv_seq, u_function, view ? &*view : nullptr);
}

std::string ParsedApdu::token() const { return token_of(format, u_function, &type); }

std::string ParsedApdu::str() const {
  const AsduView view = asdu();
  return str_of(format, send_seq, recv_seq, u_function, is_i() ? &view : nullptr);
}

Result<std::vector<std::uint8_t>> ParsedApdu::encode() const {
  const AsduView view = asdu();
  return encode_frame(format, send_seq, recv_seq, u_function, is_i() ? &view : nullptr,
                      profile());
}

ParsedApdu ParsedApdu::view_of(const Apdu& apdu, const CodecProfile& profile) {
  ParsedApdu v;
  v.format = apdu.format;
  v.send_seq = apdu.send_seq;
  v.recv_seq = apdu.recv_seq;
  v.u_function = apdu.u_function;
  v.profile_code = profile.code();
  v.compliant = profile.is_standard() || apdu.format != ApduFormat::kI;
  if (apdu.asdu) {
    const Asdu& a = *apdu.asdu;
    v.object_data = a.objects.data();
    v.type = a.type;
    v.vsq = static_cast<std::uint8_t>((a.sequence ? 0x80 : 0) |
                                      std::min<std::size_t>(a.objects.size(), 127));
    v.cot_octet = static_cast<std::uint8_t>((static_cast<std::uint8_t>(a.cot.cause) & 0x3f) |
                                            (a.cot.negative ? 0x40 : 0) |
                                            (a.cot.test ? 0x80 : 0));
    v.originator = a.cot.originator;
    v.common_address = a.common_address;
  }
  return v;
}

Result<Apdu> decode_apdu_layered(ByteReader& r, const CodecProfile& profile) {
  auto start = r.u8();
  if (!start) return start.error();
  if (start.value() != kStartByte) {
    return Err("bad-start-byte", std::to_string(start.value()));
  }
  auto len = r.u8();
  if (!len) return len.error();
  if (len.value() < 4) return Err("bad-apdu-length", std::to_string(len.value()));
  auto body = r.bytes(len.value());
  if (!body) return Err("truncated", "APDU body");

  ByteReader b(body.value());
  std::uint8_t cf1 = b.u8().value();
  std::uint8_t cf2 = b.u8().value();
  std::uint8_t cf3 = b.u8().value();
  std::uint8_t cf4 = b.u8().value();

  Apdu apdu;
  if ((cf1 & 0x01) == 0) {
    apdu.format = ApduFormat::kI;
    apdu.send_seq = static_cast<std::uint16_t>((cf1 >> 1) | (cf2 << 7));
    apdu.recv_seq = static_cast<std::uint16_t>((cf3 >> 1) | (cf4 << 7));
    auto asdu = Asdu::decode(b, profile);
    if (!asdu) return asdu.error();
    apdu.asdu = std::move(asdu).take();
  } else if ((cf1 & 0x03) == 0x01) {
    apdu.format = ApduFormat::kS;
    apdu.recv_seq = static_cast<std::uint16_t>((cf3 >> 1) | (cf4 << 7));
    if (len.value() != 4) return Err("bad-s-length", std::to_string(len.value()));
  } else {
    apdu.format = ApduFormat::kU;
    std::uint8_t fn = cf1 & 0xfc;
    switch (fn) {
      case 0x04: apdu.u_function = UFunction::kStartDtAct; break;
      case 0x08: apdu.u_function = UFunction::kStartDtCon; break;
      case 0x10: apdu.u_function = UFunction::kStopDtAct; break;
      case 0x20: apdu.u_function = UFunction::kStopDtCon; break;
      case 0x40: apdu.u_function = UFunction::kTestFrAct; break;
      case 0x80: apdu.u_function = UFunction::kTestFrCon; break;
      default: return Err("bad-u-function", std::to_string(fn));
    }
    if (len.value() != 4) return Err("bad-u-length", std::to_string(len.value()));
  }
  return apdu;
}

// --- Fixed-offset decode -----------------------------------------------------

namespace {

constexpr std::size_t kApciSize = 6;  ///< start, length, 4 control octets

/// What the exact-length check needs of a type id, one table lookup per
/// frame instead of three switches.
struct TypeLayout {
  bool supported = false;
  std::int8_t element_size = -1;  ///< -1: variable (F_SG_NA_1)
  std::uint8_t time_tag = 0;      ///< CP56 octets after each element
};

const std::array<TypeLayout, 256>& type_layouts() {
  static const std::array<TypeLayout, 256> table = [] {
    std::array<TypeLayout, 256> t{};
    for (std::size_t code = 0; code < t.size(); ++code) {
      if (!is_supported_type(static_cast<std::uint8_t>(code))) continue;
      const auto type = static_cast<TypeId>(code);
      t[code] = {true, static_cast<std::int8_t>(element_size(type)),
                 static_cast<std::uint8_t>(has_time_tag(type) ? Cp56Time2a::kSize : 0)};
    }
    return t;
  }();
  return table;
}

/// The widths a profile's fields take on the wire, as the layered decoder
/// reads them (any width other than the wide one reads as the narrow one).
struct Widths {
  std::size_t cot;
  std::size_t ca;
  std::size_t ioa;

  explicit Widths(const CodecProfile& profile)
      : cot(profile.cot_octets == 2 ? 2 : 1),
        ca(profile.ca_octets == 2 ? 2 : 1),
        ioa(profile.ioa_octets == 3 ? 3 : 2) {}
  /// Type id, VSQ, COT and common address.
  std::size_t header() const { return 2 + cot + ca; }
};

bool cp56_valid(const std::uint8_t* p) {
  Cp56Time2a t;
  return Cp56Time2a::decode_at(p, t);
}

/// The CP56 fields an element of `type` embeds are in range.
bool element_valid(TypeId type, const std::uint8_t* e) {
  switch (type) {
    case TypeId::C_CS_NA_1: return cp56_valid(e);
    case TypeId::F_SC_NB_1: return cp56_valid(e + 2) && cp56_valid(e + 9);
    default: return true;
  }
}

/// Length walk of F_SG_NA_1 objects, whose elements carry their own length
/// octet: every object's fixed part must fit and the last must end exactly
/// at the end of `objects`.
bool segments_fit(const ParsedApdu& a, std::size_t ioa_len,
                  std::span<const std::uint8_t> objects) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < a.object_count(); ++i) {
    if (!a.sequence() || i == 0) pos += ioa_len;
    if (pos + 4 > objects.size()) return false;  // NOF, NOS, LOS
    const std::uint8_t* const element = objects.data() + pos;
    pos += 4 + static_cast<std::size_t>(element[3]);
  }
  return pos == objects.size();
}

/// The objects of a fixed-size type take exactly [q, end), and their CP56
/// fields are in range.
bool objects_fit(const ParsedApdu& a, const TypeLayout& layout, std::size_t ioa_len,
                 const std::uint8_t* q, const std::uint8_t* end) {
  const std::size_t count = a.object_count();
  const std::size_t element = static_cast<std::size_t>(layout.element_size);
  const std::size_t per_object = element + layout.time_tag;
  const std::size_t need =
      a.sequence() ? ioa_len + count * per_object : count * (ioa_len + per_object);
  if (static_cast<std::size_t>(end - q) != need) return false;
  const bool embeds_cp56 = a.type == TypeId::C_CS_NA_1 || a.type == TypeId::F_SC_NB_1;
  if (layout.time_tag == 0 && !embeds_cp56) return true;
  for (std::size_t i = 0; i < count; ++i) {
    if (!a.sequence() || i == 0) q += ioa_len;
    if (!element_valid(a.type, q)) return false;
    q += element;
    if (layout.time_tag != 0) {
      if (!cp56_valid(q)) return false;
      q += layout.time_tag;
    }
  }
  return true;
}

Cp56Time2a load_cp56(const std::uint8_t* p) {
  Cp56Time2a t;
  Cp56Time2a::decode_at(p, t);
  return t;
}

/// decode_element() at a fixed offset: `e` holds the whole element. A
/// segment's bytes are copied into `arena`.
ElementValue load_element(TypeId type, const std::uint8_t* e,
                          std::pmr::memory_resource* arena) {
  switch (type) {
    case TypeId::M_SP_NA_1:
    case TypeId::M_SP_TB_1:
      return SinglePoint{(e[0] & 0x01) != 0, Quality::decode(e[0] & 0xf0)};
    case TypeId::M_DP_NA_1:
    case TypeId::M_DP_TB_1:
      return DoublePoint{static_cast<std::uint8_t>(e[0] & 0x03),
                         Quality::decode(e[0] & 0xf0)};
    case TypeId::M_ST_NA_1:
    case TypeId::M_ST_TB_1: {
      const int raw = e[0] & 0x7f;
      return StepPosition{static_cast<std::int8_t>(raw >= 64 ? raw - 128 : raw),
                          (e[0] & 0x80) != 0, Quality::decode(e[1])};
    }
    case TypeId::M_BO_NA_1:
    case TypeId::M_BO_TB_1:
      return Bitstring32{load_u32le(e), Quality::decode(e[4])};
    case TypeId::M_ME_NA_1:
    case TypeId::M_ME_TD_1:
      return NormalizedValue{static_cast<std::int16_t>(load_u16le(e)),
                             Quality::decode(e[2])};
    case TypeId::M_ME_ND_1:
      return NormalizedValue{static_cast<std::int16_t>(load_u16le(e)), Quality{}};
    case TypeId::M_ME_NB_1:
    case TypeId::M_ME_TE_1:
      return ScaledValue{static_cast<std::int16_t>(load_u16le(e)), Quality::decode(e[2])};
    case TypeId::M_ME_NC_1:
    case TypeId::M_ME_TF_1:
      return ShortFloat{load_f32le(e), Quality::decode(e[4])};
    case TypeId::M_IT_NA_1:
    case TypeId::M_IT_TB_1:
      return IntegratedTotals{static_cast<std::int32_t>(load_u32le(e)), e[4]};
    case TypeId::M_PS_NA_1:
      return PackedSinglePoints{load_u16le(e), load_u16le(e + 2), Quality::decode(e[4])};
    case TypeId::M_EP_TD_1:
      return ProtectionEvent{e[0], load_u16le(e + 1)};
    case TypeId::M_EP_TE_1:
      return ProtectionStartEvents{e[0], e[1], load_u16le(e + 2)};
    case TypeId::M_EP_TF_1:
      return ProtectionOutputCircuit{e[0], e[1], load_u16le(e + 2)};
    case TypeId::M_EI_NA_1:
      return EndOfInit{e[0]};
    case TypeId::C_SC_NA_1:
    case TypeId::C_SC_TA_1:
      return SingleCommand{(e[0] & 0x01) != 0, (e[0] & 0x80) != 0,
                           static_cast<std::uint8_t>((e[0] >> 2) & 0x1f)};
    case TypeId::C_DC_NA_1:
    case TypeId::C_DC_TA_1:
      return DoubleCommand{static_cast<std::uint8_t>(e[0] & 0x03), (e[0] & 0x80) != 0,
                           static_cast<std::uint8_t>((e[0] >> 2) & 0x1f)};
    case TypeId::C_RC_NA_1:
    case TypeId::C_RC_TA_1:
      return RegulatingStep{static_cast<std::uint8_t>(e[0] & 0x03), (e[0] & 0x80) != 0,
                            static_cast<std::uint8_t>((e[0] >> 2) & 0x1f)};
    case TypeId::C_SE_NA_1:
    case TypeId::C_SE_TA_1:
      return SetpointNormalized{static_cast<std::int16_t>(load_u16le(e)), e[2]};
    case TypeId::C_SE_NB_1:
    case TypeId::C_SE_TB_1:
      return SetpointScaled{static_cast<std::int16_t>(load_u16le(e)), e[2]};
    case TypeId::C_SE_NC_1:
    case TypeId::C_SE_TC_1:
      return SetpointFloat{load_f32le(e), e[4]};
    case TypeId::C_BO_NA_1:
    case TypeId::C_BO_TA_1:
      return BitstringCommand{load_u32le(e)};
    case TypeId::C_IC_NA_1:
      return InterrogationCommand{e[0]};
    case TypeId::C_CI_NA_1:
      return CounterInterrogation{e[0]};
    case TypeId::C_RD_NA_1:
      return ReadCommand{};
    case TypeId::C_CS_NA_1:
      return ClockSync{load_cp56(e)};
    case TypeId::C_RP_NA_1:
      return ResetProcess{e[0]};
    case TypeId::C_TS_TA_1:
      return TestCommand{load_u16le(e)};
    case TypeId::P_ME_NA_1:
      return ParameterNormalized{static_cast<std::int16_t>(load_u16le(e)), e[2]};
    case TypeId::P_ME_NB_1:
      return ParameterScaled{static_cast<std::int16_t>(load_u16le(e)), e[2]};
    case TypeId::P_ME_NC_1:
      return ParameterFloat{load_f32le(e), e[4]};
    case TypeId::P_AC_NA_1:
      return ParameterActivation{e[0]};
    case TypeId::F_FR_NA_1:
      return FileReady{load_u16le(e), load_u24le(e + 2), e[5]};
    case TypeId::F_SR_NA_1:
      return SectionReady{load_u16le(e), e[2], load_u24le(e + 3), e[6]};
    case TypeId::F_SC_NA_1:
      return CallFile{load_u16le(e), e[2], e[3]};
    case TypeId::F_LS_NA_1:
      return LastSection{load_u16le(e), e[2], e[3], e[4]};
    case TypeId::F_AF_NA_1:
      return AckFile{load_u16le(e), e[2], e[3]};
    case TypeId::F_SG_NA_1: {
      const std::uint8_t* const data = e + 4;
      return Segment{load_u16le(e), e[2],
                     std::pmr::vector<std::uint8_t>(data, data + e[3], arena)};
    }
    case TypeId::F_DR_TA_1:
      return DirectoryEntry{load_u16le(e), load_u24le(e + 2), e[5]};
    case TypeId::F_SC_NB_1:
      return QueryLog{load_u16le(e), load_cp56(e + 2), load_cp56(e + 9)};
  }
  return ReadCommand{};  // unreachable: check_apdu() admits supported types only
}

}  // namespace

bool check_apdu(std::span<const std::uint8_t> frame, const CodecProfile& profile,
                ParsedApdu& out) {
  const std::uint8_t* const p = frame.data();
  const std::size_t n = frame.size();
  // The one length check: the APCI is there, and the length octet frames
  // exactly this buffer. Every read below stays inside [p, p + n).
  if (n < kApciSize || p[0] != kStartByte || p[1] + std::size_t{2} != n) return false;

  ParsedApdu a;  // the fields this format leaves unset keep their defaults
  a.wire_size = static_cast<std::uint16_t>(n);
  a.profile_code = profile.code();
  const std::uint8_t cf1 = p[2];
  if ((cf1 & 0x03) == 0x01) {
    if (n != kApciSize) return false;
    a.format = ApduFormat::kS;
    a.recv_seq = static_cast<std::uint16_t>((p[4] >> 1) | (p[5] << 7));
    out = a;
    return true;
  }
  if ((cf1 & 0x01) != 0) {
    switch (cf1 & 0xfc) {
      case 0x04: a.u_function = UFunction::kStartDtAct; break;
      case 0x08: a.u_function = UFunction::kStartDtCon; break;
      case 0x10: a.u_function = UFunction::kStopDtAct; break;
      case 0x20: a.u_function = UFunction::kStopDtCon; break;
      case 0x40: a.u_function = UFunction::kTestFrAct; break;
      case 0x80: a.u_function = UFunction::kTestFrCon; break;
      default: return false;
    }
    if (n != kApciSize) return false;
    a.format = ApduFormat::kU;
    out = a;
    return true;
  }

  a.format = ApduFormat::kI;
  a.send_seq = static_cast<std::uint16_t>((cf1 >> 1) | (p[3] << 7));
  a.recv_seq = static_cast<std::uint16_t>((p[4] >> 1) | (p[5] << 7));
  a.compliant = profile.is_standard();
  const Widths widths(profile);
  const std::uint8_t* const asdu = p + kApciSize;
  const std::uint8_t* const end = p + n;
  if (static_cast<std::size_t>(end - asdu) < widths.header()) return false;
  const TypeLayout& layout = type_layouts()[asdu[0]];
  if (!layout.supported) return false;
  a.type = static_cast<TypeId>(asdu[0]);
  a.vsq = asdu[1];
  if (a.object_count() == 0) return false;
  a.cot_octet = asdu[2];
  if (widths.cot == 2) a.originator = asdu[3];
  const std::uint8_t* const ca = asdu + 2 + widths.cot;
  a.common_address = widths.ca == 2 ? load_u16le(ca) : ca[0];
  const std::uint8_t* const objects = ca + widths.ca;
  const bool fit =
      layout.element_size < 0
          ? segments_fit(a, widths.ioa, {objects, static_cast<std::size_t>(end - objects)})
          : objects_fit(a, layout, widths.ioa, objects, end);
  if (!fit) return false;
  out = a;
  return true;
}

void decode_objects(std::span<const std::uint8_t> frame, const CodecProfile& profile,
                    std::pmr::memory_resource* arena, ParsedApdu& out) {
  if (!out.is_i()) return;
  const Widths widths(profile);
  const TypeLayout& layout = type_layouts()[static_cast<std::uint8_t>(out.type)];
  const std::size_t count = out.object_count();
  auto* const objects = static_cast<InformationObject*>(
      arena->allocate(count * sizeof(InformationObject), alignof(InformationObject)));
  const std::uint8_t* q = frame.data() + kApciSize + widths.header();
  std::uint32_t base_ioa = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!out.sequence() || i == 0) {
      base_ioa = widths.ioa == 3 ? load_u24le(q) : load_u16le(q);
      q += widths.ioa;
    }
    const std::uint32_t ioa =
        out.sequence() ? base_ioa + static_cast<std::uint32_t>(i) : base_ioa;
    const std::uint8_t* const element = q;
    q += layout.element_size < 0 ? std::size_t{4} + element[3]
                                 : static_cast<std::size_t>(layout.element_size);
    std::optional<Cp56Time2a> time;
    if (layout.time_tag != 0) {
      time = load_cp56(q);
      q += layout.time_tag;
    }
    // Arena objects are never destroyed: the arena frees them wholesale,
    // a segment's bytes included.
    ::new (objects + i) InformationObject{ioa, load_element(out.type, element, arena), time};
  }
  out.object_data = objects;
}

bool decode_apdu_into(std::span<const std::uint8_t> frame, const CodecProfile& profile,
                      std::pmr::memory_resource* arena, ParsedApdu& out) {
  if (!check_apdu(frame, profile, out)) return false;
  decode_objects(frame, profile, arena, out);
  return true;
}

}  // namespace uncharted::iec104
