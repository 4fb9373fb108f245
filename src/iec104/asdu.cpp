#include "iec104/asdu.hpp"

#include <type_traits>

namespace uncharted::iec104 {

std::string CodecProfile::str() const {
  if (is_standard()) return "standard";
  return "cot=" + std::to_string(cot_octets) + ",ioa=" + std::to_string(ioa_octets) +
         ",ca=" + std::to_string(ca_octets);
}

std::string CauseOfTransmission::str() const {
  std::string s = cause_name(cause);
  if (negative) s += " (neg)";
  if (test) s += " (test)";
  return s;
}

namespace {

Error type_mismatch(TypeId t) {
  return Err("element-type-mismatch", type_acronym(t));
}

/// Checked fetch of the expected alternative.
template <typename T>
Result<const T*> expect(const ElementValue& v, TypeId t) {
  if (const T* p = std::get_if<T>(&v)) return p;
  return type_mismatch(t);
}

std::uint8_t command_octet(bool on_or_state_low, std::uint8_t state, bool select,
                           std::uint8_t qualifier) {
  // SCO/DCO/RCO share the layout: low bits state, QU bits 2..6, S/E bit 7.
  std::uint8_t base = state ? state : (on_or_state_low ? 1 : 0);
  return static_cast<std::uint8_t>((base & 0x03) | ((qualifier & 0x1f) << 2) |
                                   (select ? 0x80 : 0));
}

void write_u24le(ByteWriter& w, std::uint32_t v) {
  w.u8(static_cast<std::uint8_t>(v & 0xff));
  w.u8(static_cast<std::uint8_t>((v >> 8) & 0xff));
  w.u8(static_cast<std::uint8_t>((v >> 16) & 0xff));
}

Result<std::uint32_t> read_u24le(ByteReader& r) {
  auto a = r.u8();
  auto b = r.u8();
  auto c = r.u8();
  if (!c) return Err("truncated", "u24");
  return static_cast<std::uint32_t>(a.value()) |
         (static_cast<std::uint32_t>(b.value()) << 8) |
         (static_cast<std::uint32_t>(c.value()) << 16);
}

}  // namespace

Status encode_element(TypeId t, const ElementValue& v, ByteWriter& w) {
  switch (t) {
    case TypeId::M_SP_NA_1:
    case TypeId::M_SP_TB_1: {
      auto p = expect<SinglePoint>(v, t);
      if (!p) return p.error();
      w.u8(static_cast<std::uint8_t>(((*p)->on ? 0x01 : 0x00) |
                                     ((*p)->quality.encode() & 0xf0)));
      return Status::Ok();
    }
    case TypeId::M_DP_NA_1:
    case TypeId::M_DP_TB_1: {
      auto p = expect<DoublePoint>(v, t);
      if (!p) return p.error();
      w.u8(static_cast<std::uint8_t>(((*p)->state & 0x03) |
                                     ((*p)->quality.encode() & 0xf0)));
      return Status::Ok();
    }
    case TypeId::M_ST_NA_1:
    case TypeId::M_ST_TB_1: {
      auto p = expect<StepPosition>(v, t);
      if (!p) return p.error();
      w.u8(static_cast<std::uint8_t>(((*p)->value & 0x7f) | ((*p)->transient ? 0x80 : 0)));
      w.u8((*p)->quality.encode());
      return Status::Ok();
    }
    case TypeId::M_BO_NA_1:
    case TypeId::M_BO_TB_1: {
      auto p = expect<Bitstring32>(v, t);
      if (!p) return p.error();
      w.u32le((*p)->bits);
      w.u8((*p)->quality.encode());
      return Status::Ok();
    }
    case TypeId::M_ME_NA_1:
    case TypeId::M_ME_TD_1: {
      auto p = expect<NormalizedValue>(v, t);
      if (!p) return p.error();
      w.u16le(static_cast<std::uint16_t>((*p)->raw));
      w.u8((*p)->quality.encode());
      return Status::Ok();
    }
    case TypeId::M_ME_ND_1: {
      auto p = expect<NormalizedValue>(v, t);
      if (!p) return p.error();
      w.u16le(static_cast<std::uint16_t>((*p)->raw));
      return Status::Ok();
    }
    case TypeId::M_ME_NB_1:
    case TypeId::M_ME_TE_1: {
      auto p = expect<ScaledValue>(v, t);
      if (!p) return p.error();
      w.u16le(static_cast<std::uint16_t>((*p)->value));
      w.u8((*p)->quality.encode());
      return Status::Ok();
    }
    case TypeId::M_ME_NC_1:
    case TypeId::M_ME_TF_1: {
      auto p = expect<ShortFloat>(v, t);
      if (!p) return p.error();
      w.f32le((*p)->value);
      w.u8((*p)->quality.encode());
      return Status::Ok();
    }
    case TypeId::M_IT_NA_1:
    case TypeId::M_IT_TB_1: {
      auto p = expect<IntegratedTotals>(v, t);
      if (!p) return p.error();
      w.u32le(static_cast<std::uint32_t>((*p)->counter));
      w.u8((*p)->sequence);
      return Status::Ok();
    }
    case TypeId::M_PS_NA_1: {
      auto p = expect<PackedSinglePoints>(v, t);
      if (!p) return p.error();
      w.u16le((*p)->status);
      w.u16le((*p)->change);
      w.u8((*p)->quality.encode());
      return Status::Ok();
    }
    case TypeId::M_EP_TD_1: {
      auto p = expect<ProtectionEvent>(v, t);
      if (!p) return p.error();
      w.u8((*p)->event);
      w.u16le((*p)->elapsed_ms);
      return Status::Ok();
    }
    case TypeId::M_EP_TE_1: {
      auto p = expect<ProtectionStartEvents>(v, t);
      if (!p) return p.error();
      w.u8((*p)->events);
      w.u8((*p)->quality);
      w.u16le((*p)->duration_ms);
      return Status::Ok();
    }
    case TypeId::M_EP_TF_1: {
      auto p = expect<ProtectionOutputCircuit>(v, t);
      if (!p) return p.error();
      w.u8((*p)->circuits);
      w.u8((*p)->quality);
      w.u16le((*p)->operating_ms);
      return Status::Ok();
    }
    case TypeId::M_EI_NA_1: {
      auto p = expect<EndOfInit>(v, t);
      if (!p) return p.error();
      w.u8((*p)->cause);
      return Status::Ok();
    }
    case TypeId::C_SC_NA_1:
    case TypeId::C_SC_TA_1: {
      auto p = expect<SingleCommand>(v, t);
      if (!p) return p.error();
      w.u8(command_octet((*p)->on, 0, (*p)->select, (*p)->qualifier));
      return Status::Ok();
    }
    case TypeId::C_DC_NA_1:
    case TypeId::C_DC_TA_1: {
      auto p = expect<DoubleCommand>(v, t);
      if (!p) return p.error();
      w.u8(command_octet(false, (*p)->state, (*p)->select, (*p)->qualifier));
      return Status::Ok();
    }
    case TypeId::C_RC_NA_1:
    case TypeId::C_RC_TA_1: {
      auto p = expect<RegulatingStep>(v, t);
      if (!p) return p.error();
      w.u8(command_octet(false, (*p)->step, (*p)->select, (*p)->qualifier));
      return Status::Ok();
    }
    case TypeId::C_SE_NA_1:
    case TypeId::C_SE_TA_1: {
      auto p = expect<SetpointNormalized>(v, t);
      if (!p) return p.error();
      w.u16le(static_cast<std::uint16_t>((*p)->raw));
      w.u8((*p)->qos);
      return Status::Ok();
    }
    case TypeId::C_SE_NB_1:
    case TypeId::C_SE_TB_1: {
      auto p = expect<SetpointScaled>(v, t);
      if (!p) return p.error();
      w.u16le(static_cast<std::uint16_t>((*p)->value));
      w.u8((*p)->qos);
      return Status::Ok();
    }
    case TypeId::C_SE_NC_1:
    case TypeId::C_SE_TC_1: {
      auto p = expect<SetpointFloat>(v, t);
      if (!p) return p.error();
      w.f32le((*p)->value);
      w.u8((*p)->qos);
      return Status::Ok();
    }
    case TypeId::C_BO_NA_1:
    case TypeId::C_BO_TA_1: {
      auto p = expect<BitstringCommand>(v, t);
      if (!p) return p.error();
      w.u32le((*p)->bits);
      return Status::Ok();
    }
    case TypeId::C_IC_NA_1: {
      auto p = expect<InterrogationCommand>(v, t);
      if (!p) return p.error();
      w.u8((*p)->qualifier);
      return Status::Ok();
    }
    case TypeId::C_CI_NA_1: {
      auto p = expect<CounterInterrogation>(v, t);
      if (!p) return p.error();
      w.u8((*p)->qualifier);
      return Status::Ok();
    }
    case TypeId::C_RD_NA_1: {
      auto p = expect<ReadCommand>(v, t);
      if (!p) return p.error();
      return Status::Ok();
    }
    case TypeId::C_CS_NA_1: {
      auto p = expect<ClockSync>(v, t);
      if (!p) return p.error();
      (*p)->time.encode(w);
      return Status::Ok();
    }
    case TypeId::C_RP_NA_1: {
      auto p = expect<ResetProcess>(v, t);
      if (!p) return p.error();
      w.u8((*p)->qualifier);
      return Status::Ok();
    }
    case TypeId::C_TS_TA_1: {
      auto p = expect<TestCommand>(v, t);
      if (!p) return p.error();
      w.u16le((*p)->counter);
      return Status::Ok();
    }
    case TypeId::P_ME_NA_1: {
      auto p = expect<ParameterNormalized>(v, t);
      if (!p) return p.error();
      w.u16le(static_cast<std::uint16_t>((*p)->raw));
      w.u8((*p)->qpm);
      return Status::Ok();
    }
    case TypeId::P_ME_NB_1: {
      auto p = expect<ParameterScaled>(v, t);
      if (!p) return p.error();
      w.u16le(static_cast<std::uint16_t>((*p)->value));
      w.u8((*p)->qpm);
      return Status::Ok();
    }
    case TypeId::P_ME_NC_1: {
      auto p = expect<ParameterFloat>(v, t);
      if (!p) return p.error();
      w.f32le((*p)->value);
      w.u8((*p)->qpm);
      return Status::Ok();
    }
    case TypeId::P_AC_NA_1: {
      auto p = expect<ParameterActivation>(v, t);
      if (!p) return p.error();
      w.u8((*p)->qpa);
      return Status::Ok();
    }
    case TypeId::F_FR_NA_1: {
      auto p = expect<FileReady>(v, t);
      if (!p) return p.error();
      w.u16le((*p)->file_name);
      write_u24le(w, (*p)->length);
      w.u8((*p)->qualifier);
      return Status::Ok();
    }
    case TypeId::F_SR_NA_1: {
      auto p = expect<SectionReady>(v, t);
      if (!p) return p.error();
      w.u16le((*p)->file_name);
      w.u8((*p)->section);
      write_u24le(w, (*p)->length);
      w.u8((*p)->qualifier);
      return Status::Ok();
    }
    case TypeId::F_SC_NA_1: {
      auto p = expect<CallFile>(v, t);
      if (!p) return p.error();
      w.u16le((*p)->file_name);
      w.u8((*p)->section);
      w.u8((*p)->qualifier);
      return Status::Ok();
    }
    case TypeId::F_LS_NA_1: {
      auto p = expect<LastSection>(v, t);
      if (!p) return p.error();
      w.u16le((*p)->file_name);
      w.u8((*p)->section);
      w.u8((*p)->qualifier);
      w.u8((*p)->checksum);
      return Status::Ok();
    }
    case TypeId::F_AF_NA_1: {
      auto p = expect<AckFile>(v, t);
      if (!p) return p.error();
      w.u16le((*p)->file_name);
      w.u8((*p)->section);
      w.u8((*p)->qualifier);
      return Status::Ok();
    }
    case TypeId::F_SG_NA_1: {
      auto p = expect<Segment>(v, t);
      if (!p) return p.error();
      if ((*p)->data.size() > 240) return Err("segment-too-long");
      w.u16le((*p)->file_name);
      w.u8((*p)->section);
      w.u8(static_cast<std::uint8_t>((*p)->data.size()));
      w.bytes((*p)->data);
      return Status::Ok();
    }
    case TypeId::F_DR_TA_1: {
      auto p = expect<DirectoryEntry>(v, t);
      if (!p) return p.error();
      w.u16le((*p)->file_name);
      write_u24le(w, (*p)->length);
      w.u8((*p)->status);
      return Status::Ok();
    }
    case TypeId::F_SC_NB_1: {
      auto p = expect<QueryLog>(v, t);
      if (!p) return p.error();
      w.u16le((*p)->file_name);
      (*p)->start.encode(w);
      (*p)->stop.encode(w);
      return Status::Ok();
    }
  }
  return Err("unsupported-type", std::to_string(static_cast<int>(t)));
}

Result<ElementValue> decode_element(TypeId t, ByteReader& r) {
  auto need = [&](std::size_t n) { return r.can_read(n); };
  switch (t) {
    case TypeId::M_SP_NA_1:
    case TypeId::M_SP_TB_1: {
      auto b = r.u8();
      if (!b) return b.error();
      SinglePoint e;
      e.on = b.value() & 0x01;
      e.quality = Quality::decode(b.value() & 0xf0);
      return ElementValue{e};
    }
    case TypeId::M_DP_NA_1:
    case TypeId::M_DP_TB_1: {
      auto b = r.u8();
      if (!b) return b.error();
      DoublePoint e;
      e.state = b.value() & 0x03;
      e.quality = Quality::decode(b.value() & 0xf0);
      return ElementValue{e};
    }
    case TypeId::M_ST_NA_1:
    case TypeId::M_ST_TB_1: {
      auto vti = r.u8();
      auto q = r.u8();
      if (!q) return Err("truncated", "VTI");
      StepPosition e;
      std::uint8_t raw = vti.value() & 0x7f;
      e.value = static_cast<std::int8_t>(raw >= 64 ? static_cast<int>(raw) - 128
                                                   : static_cast<int>(raw));
      e.transient = vti.value() & 0x80;
      e.quality = Quality::decode(q.value());
      return ElementValue{e};
    }
    case TypeId::M_BO_NA_1:
    case TypeId::M_BO_TB_1: {
      auto bits = r.u32le();
      auto q = r.u8();
      if (!q) return Err("truncated", "BSI");
      Bitstring32 e;
      e.bits = bits.value();
      e.quality = Quality::decode(q.value());
      return ElementValue{e};
    }
    case TypeId::M_ME_NA_1:
    case TypeId::M_ME_TD_1: {
      auto raw = r.u16le();
      auto q = r.u8();
      if (!q) return Err("truncated", "NVA");
      NormalizedValue e;
      e.raw = static_cast<std::int16_t>(raw.value());
      e.quality = Quality::decode(q.value());
      return ElementValue{e};
    }
    case TypeId::M_ME_ND_1: {
      auto raw = r.u16le();
      if (!raw) return raw.error();
      NormalizedValue e;
      e.raw = static_cast<std::int16_t>(raw.value());
      return ElementValue{e};
    }
    case TypeId::M_ME_NB_1:
    case TypeId::M_ME_TE_1: {
      auto raw = r.u16le();
      auto q = r.u8();
      if (!q) return Err("truncated", "SVA");
      ScaledValue e;
      e.value = static_cast<std::int16_t>(raw.value());
      e.quality = Quality::decode(q.value());
      return ElementValue{e};
    }
    case TypeId::M_ME_NC_1:
    case TypeId::M_ME_TF_1: {
      auto f = r.f32le();
      auto q = r.u8();
      if (!q) return Err("truncated", "R32");
      ShortFloat e;
      e.value = f.value();
      e.quality = Quality::decode(q.value());
      return ElementValue{e};
    }
    case TypeId::M_IT_NA_1:
    case TypeId::M_IT_TB_1: {
      auto c = r.u32le();
      auto s = r.u8();
      if (!s) return Err("truncated", "BCR");
      IntegratedTotals e;
      e.counter = static_cast<std::int32_t>(c.value());
      e.sequence = s.value();
      return ElementValue{e};
    }
    case TypeId::M_PS_NA_1: {
      auto st = r.u16le();
      auto cd = r.u16le();
      auto q = r.u8();
      if (!q) return Err("truncated", "SCD");
      PackedSinglePoints e;
      e.status = st.value();
      e.change = cd.value();
      e.quality = Quality::decode(q.value());
      return ElementValue{e};
    }
    case TypeId::M_EP_TD_1: {
      auto sep = r.u8();
      auto ms = r.u16le();
      if (!ms) return Err("truncated", "SEP");
      ProtectionEvent e;
      e.event = sep.value();
      e.elapsed_ms = ms.value();
      return ElementValue{e};
    }
    case TypeId::M_EP_TE_1: {
      auto spe = r.u8();
      auto qdp = r.u8();
      auto ms = r.u16le();
      if (!ms) return Err("truncated", "SPE");
      ProtectionStartEvents e;
      e.events = spe.value();
      e.quality = qdp.value();
      e.duration_ms = ms.value();
      return ElementValue{e};
    }
    case TypeId::M_EP_TF_1: {
      auto oci = r.u8();
      auto qdp = r.u8();
      auto ms = r.u16le();
      if (!ms) return Err("truncated", "OCI");
      ProtectionOutputCircuit e;
      e.circuits = oci.value();
      e.quality = qdp.value();
      e.operating_ms = ms.value();
      return ElementValue{e};
    }
    case TypeId::M_EI_NA_1: {
      auto coi = r.u8();
      if (!coi) return coi.error();
      return ElementValue{EndOfInit{coi.value()}};
    }
    case TypeId::C_SC_NA_1:
    case TypeId::C_SC_TA_1: {
      auto sco = r.u8();
      if (!sco) return sco.error();
      SingleCommand e;
      e.on = sco.value() & 0x01;
      e.qualifier = (sco.value() >> 2) & 0x1f;
      e.select = sco.value() & 0x80;
      return ElementValue{e};
    }
    case TypeId::C_DC_NA_1:
    case TypeId::C_DC_TA_1: {
      auto dco = r.u8();
      if (!dco) return dco.error();
      DoubleCommand e;
      e.state = dco.value() & 0x03;
      e.qualifier = (dco.value() >> 2) & 0x1f;
      e.select = dco.value() & 0x80;
      return ElementValue{e};
    }
    case TypeId::C_RC_NA_1:
    case TypeId::C_RC_TA_1: {
      auto rco = r.u8();
      if (!rco) return rco.error();
      RegulatingStep e;
      e.step = rco.value() & 0x03;
      e.qualifier = (rco.value() >> 2) & 0x1f;
      e.select = rco.value() & 0x80;
      return ElementValue{e};
    }
    case TypeId::C_SE_NA_1:
    case TypeId::C_SE_TA_1: {
      auto raw = r.u16le();
      auto q = r.u8();
      if (!q) return Err("truncated", "setpoint");
      SetpointNormalized e;
      e.raw = static_cast<std::int16_t>(raw.value());
      e.qos = q.value();
      return ElementValue{e};
    }
    case TypeId::C_SE_NB_1:
    case TypeId::C_SE_TB_1: {
      auto raw = r.u16le();
      auto q = r.u8();
      if (!q) return Err("truncated", "setpoint");
      SetpointScaled e;
      e.value = static_cast<std::int16_t>(raw.value());
      e.qos = q.value();
      return ElementValue{e};
    }
    case TypeId::C_SE_NC_1:
    case TypeId::C_SE_TC_1: {
      auto f = r.f32le();
      auto q = r.u8();
      if (!q) return Err("truncated", "setpoint");
      SetpointFloat e;
      e.value = f.value();
      e.qos = q.value();
      return ElementValue{e};
    }
    case TypeId::C_BO_NA_1:
    case TypeId::C_BO_TA_1: {
      auto bits = r.u32le();
      if (!bits) return bits.error();
      return ElementValue{BitstringCommand{bits.value()}};
    }
    case TypeId::C_IC_NA_1: {
      auto q = r.u8();
      if (!q) return q.error();
      return ElementValue{InterrogationCommand{q.value()}};
    }
    case TypeId::C_CI_NA_1: {
      auto q = r.u8();
      if (!q) return q.error();
      return ElementValue{CounterInterrogation{q.value()}};
    }
    case TypeId::C_RD_NA_1:
      return ElementValue{ReadCommand{}};
    case TypeId::C_CS_NA_1: {
      auto t7 = Cp56Time2a::decode(r);
      if (!t7) return t7.error();
      return ElementValue{ClockSync{t7.value()}};
    }
    case TypeId::C_RP_NA_1: {
      auto q = r.u8();
      if (!q) return q.error();
      return ElementValue{ResetProcess{q.value()}};
    }
    case TypeId::C_TS_TA_1: {
      auto c = r.u16le();
      if (!c) return c.error();
      return ElementValue{TestCommand{c.value()}};
    }
    case TypeId::P_ME_NA_1: {
      auto raw = r.u16le();
      auto q = r.u8();
      if (!q) return Err("truncated", "param");
      ParameterNormalized e;
      e.raw = static_cast<std::int16_t>(raw.value());
      e.qpm = q.value();
      return ElementValue{e};
    }
    case TypeId::P_ME_NB_1: {
      auto raw = r.u16le();
      auto q = r.u8();
      if (!q) return Err("truncated", "param");
      ParameterScaled e;
      e.value = static_cast<std::int16_t>(raw.value());
      e.qpm = q.value();
      return ElementValue{e};
    }
    case TypeId::P_ME_NC_1: {
      auto f = r.f32le();
      auto q = r.u8();
      if (!q) return Err("truncated", "param");
      ParameterFloat e;
      e.value = f.value();
      e.qpm = q.value();
      return ElementValue{e};
    }
    case TypeId::P_AC_NA_1: {
      auto q = r.u8();
      if (!q) return q.error();
      return ElementValue{ParameterActivation{q.value()}};
    }
    case TypeId::F_FR_NA_1: {
      if (!need(6)) return Err("truncated", "F_FR");
      FileReady e;
      e.file_name = r.u16le().value();
      e.length = read_u24le(r).value();
      e.qualifier = r.u8().value();
      return ElementValue{e};
    }
    case TypeId::F_SR_NA_1: {
      if (!need(7)) return Err("truncated", "F_SR");
      SectionReady e;
      e.file_name = r.u16le().value();
      e.section = r.u8().value();
      e.length = read_u24le(r).value();
      e.qualifier = r.u8().value();
      return ElementValue{e};
    }
    case TypeId::F_SC_NA_1: {
      if (!need(4)) return Err("truncated", "F_SC");
      CallFile e;
      e.file_name = r.u16le().value();
      e.section = r.u8().value();
      e.qualifier = r.u8().value();
      return ElementValue{e};
    }
    case TypeId::F_LS_NA_1: {
      if (!need(5)) return Err("truncated", "F_LS");
      LastSection e;
      e.file_name = r.u16le().value();
      e.section = r.u8().value();
      e.qualifier = r.u8().value();
      e.checksum = r.u8().value();
      return ElementValue{e};
    }
    case TypeId::F_AF_NA_1: {
      if (!need(4)) return Err("truncated", "F_AF");
      AckFile e;
      e.file_name = r.u16le().value();
      e.section = r.u8().value();
      e.qualifier = r.u8().value();
      return ElementValue{e};
    }
    case TypeId::F_SG_NA_1: {
      if (!need(4)) return Err("truncated", "F_SG");
      Segment e;
      e.file_name = r.u16le().value();
      e.section = r.u8().value();
      std::uint8_t los = r.u8().value();
      auto data = r.bytes(los);
      if (!data) return data.error();
      e.data.assign(data->begin(), data->end());
      return ElementValue{e};
    }
    case TypeId::F_DR_TA_1: {
      if (!need(6)) return Err("truncated", "F_DR");
      DirectoryEntry e;
      e.file_name = r.u16le().value();
      e.length = read_u24le(r).value();
      e.status = r.u8().value();
      return ElementValue{e};
    }
    case TypeId::F_SC_NB_1: {
      auto nof = r.u16le();
      if (!nof) return nof.error();
      auto start = Cp56Time2a::decode(r);
      if (!start) return start.error();
      auto stop = Cp56Time2a::decode(r);
      if (!stop) return stop.error();
      QueryLog e;
      e.file_name = nof.value();
      e.start = start.value();
      e.stop = stop.value();
      return ElementValue{e};
    }
  }
  return Err("unsupported-type", std::to_string(static_cast<int>(t)));
}

Status Asdu::encode(ByteWriter& w, const CodecProfile& profile) const {
  return encode_asdu(*this, w, profile);
}

Status encode_asdu(const AsduView& asdu, ByteWriter& w, const CodecProfile& profile) {
  const auto& [type, sequence, cot, common_address, objects] = asdu;
  if (objects.empty() || objects.size() > 127) {
    return Err("bad-object-count", std::to_string(objects.size()));
  }
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>((sequence ? 0x80 : 0) |
                                 static_cast<std::uint8_t>(objects.size())));
  std::uint8_t cot_octet =
      static_cast<std::uint8_t>((static_cast<std::uint8_t>(cot.cause) & 0x3f) |
                                (cot.negative ? 0x40 : 0) | (cot.test ? 0x80 : 0));
  w.u8(cot_octet);
  if (profile.cot_octets == 2) w.u8(cot.originator);

  if (profile.ca_octets == 2) {
    w.u16le(common_address);
  } else {
    w.u8(static_cast<std::uint8_t>(common_address & 0xff));
  }

  auto write_ioa = [&](std::uint32_t ioa) {
    w.u8(static_cast<std::uint8_t>(ioa & 0xff));
    w.u8(static_cast<std::uint8_t>((ioa >> 8) & 0xff));
    if (profile.ioa_octets == 3) w.u8(static_cast<std::uint8_t>((ioa >> 16) & 0xff));
  };

  bool first = true;
  for (const auto& obj : objects) {
    if (!sequence || first) write_ioa(obj.ioa);
    first = false;
    auto st = encode_element(type, obj.value, w);
    if (!st.ok()) return st;
    if (has_time_tag(type)) {
      if (!obj.time) return Err("missing-time-tag", type_acronym(type));
      obj.time->encode(w);
    }
  }
  return Status::Ok();
}

Result<Asdu> Asdu::decode(ByteReader& r, const CodecProfile& profile) {
  auto type_code = r.u8();
  if (!type_code) return type_code.error();
  if (!is_supported_type(type_code.value())) {
    return Err("unknown-typeid", std::to_string(type_code.value()));
  }
  Asdu asdu;
  asdu.type = static_cast<TypeId>(type_code.value());

  auto vsq = r.u8();
  if (!vsq) return vsq.error();
  asdu.sequence = vsq.value() & 0x80;
  std::uint8_t count = vsq.value() & 0x7f;
  if (count == 0) return Err("zero-objects");
  asdu.objects.reserve(count);

  auto cot1 = r.u8();
  if (!cot1) return cot1.error();
  asdu.cot.cause = static_cast<Cause>(cot1.value() & 0x3f);
  asdu.cot.negative = cot1.value() & 0x40;
  asdu.cot.test = cot1.value() & 0x80;
  if (profile.cot_octets == 2) {
    auto orig = r.u8();
    if (!orig) return orig.error();
    asdu.cot.originator = orig.value();
  }

  if (profile.ca_octets == 2) {
    auto ca = r.u16le();
    if (!ca) return ca.error();
    asdu.common_address = ca.value();
  } else {
    auto ca = r.u8();
    if (!ca) return ca.error();
    asdu.common_address = ca.value();
  }

  auto read_ioa = [&]() -> Result<std::uint32_t> {
    auto lo = r.u8();
    auto mid = r.u8();
    if (!mid) return Err("truncated", "ioa");
    std::uint32_t ioa =
        static_cast<std::uint32_t>(lo.value()) | (static_cast<std::uint32_t>(mid.value()) << 8);
    if (profile.ioa_octets == 3) {
      auto hi = r.u8();
      if (!hi) return Err("truncated", "ioa");
      ioa |= static_cast<std::uint32_t>(hi.value()) << 16;
    }
    return ioa;
  };

  std::uint32_t base_ioa = 0;
  for (std::uint8_t i = 0; i < count; ++i) {
    InformationObject obj;
    if (!asdu.sequence || i == 0) {
      auto ioa = read_ioa();
      if (!ioa) return ioa.error();
      base_ioa = ioa.value();
    }
    obj.ioa = asdu.sequence ? base_ioa + i : base_ioa;
    auto elem = decode_element(asdu.type, r);
    if (!elem) return elem.error();
    obj.value = std::move(elem).take();
    if (has_time_tag(asdu.type)) {
      auto tt = Cp56Time2a::decode(r);
      if (!tt) return tt.error();
      obj.time = tt.value();
    }
    asdu.objects.push_back(std::move(obj));
  }

  if (!r.empty()) {
    return Err("trailing-bytes", std::to_string(r.remaining()) + " leftover");
  }
  return asdu;
}

std::string Asdu::str() const { return AsduView(*this).str(); }

std::string AsduView::str() const {
  std::string s = type_acronym(type) + " cot=" + cot.str() +
                  " ca=" + std::to_string(common_address) + " n=" +
                  std::to_string(objects.size());
  if (!objects.empty()) {
    s += " [ioa " + std::to_string(objects.front().ioa) + ": " +
         element_str(objects.front().value) + "]";
  }
  return s;
}

}  // namespace uncharted::iec104
