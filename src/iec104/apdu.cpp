#include "iec104/apdu.hpp"

#include "iec104/seq15.hpp"

namespace uncharted::iec104 {

std::string format_name(ApduFormat f) {
  switch (f) {
    case ApduFormat::kI: return "I";
    case ApduFormat::kS: return "S";
    case ApduFormat::kU: return "U";
  }
  return "?";
}

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

Result<std::vector<std::uint8_t>> Apdu::encode(const CodecProfile& profile) const {
  ByteWriter body;
  switch (format) {
    case ApduFormat::kI: {
      if (!asdu) return Err("missing-asdu", "I-format requires an ASDU");
      body.u8(static_cast<std::uint8_t>((send_seq << 1) & 0xfe));
      body.u8(static_cast<std::uint8_t>(send_seq >> 7));
      body.u8(static_cast<std::uint8_t>((recv_seq << 1) & 0xfe));
      body.u8(static_cast<std::uint8_t>(recv_seq >> 7));
      auto st = asdu->encode(body, profile);
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

std::string Apdu::token() const {
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
      if (asdu) return "I_" + std::to_string(static_cast<int>(asdu->type));
      return "I_?";
  }
  return "?";
}

std::string Apdu::str() const {
  std::string out;
  switch (format) {
    case ApduFormat::kS:
      return "S nr=" + std::to_string(recv_seq);
    case ApduFormat::kU:
      return "U " + u_function_name(u_function);
    case ApduFormat::kI:
      out = "I ns=" + std::to_string(send_seq) + " nr=" + std::to_string(recv_seq);
      if (asdu) {
        out += ' ';
        out += asdu->str();
      }
      return out;
  }
  return "?";
}

Result<Apdu> decode_apdu(ByteReader& r, const CodecProfile& profile,
                         std::pmr::memory_resource* arena) {
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
    auto asdu = Asdu::decode(b, profile, arena);
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

}  // namespace uncharted::iec104
