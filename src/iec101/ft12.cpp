#include "iec101/ft12.hpp"

#include <numeric>

namespace uncharted::iec101 {

namespace {
constexpr std::uint8_t kSingleChar = 0xe5;
constexpr std::uint8_t kFixedStart = 0x10;
constexpr std::uint8_t kVariableStart = 0x68;
constexpr std::uint8_t kStop = 0x16;

std::uint8_t checksum(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  for (auto b : bytes) sum += b;
  return static_cast<std::uint8_t>(sum & 0xff);
}
}  // namespace

std::uint8_t LinkControl::encode() const {
  std::uint8_t c = function & 0x0f;
  if (prm) {
    c |= 0x40;
    if (fcb) c |= 0x20;
    if (fcv) c |= 0x10;
  } else {
    if (acd) c |= 0x20;
    if (dfc) c |= 0x10;
  }
  return c;
}

LinkControl LinkControl::decode(std::uint8_t octet) {
  LinkControl c;
  c.prm = octet & 0x40;
  c.function = octet & 0x0f;
  if (c.prm) {
    c.fcb = octet & 0x20;
    c.fcv = octet & 0x10;
  } else {
    c.acd = octet & 0x20;
    c.dfc = octet & 0x10;
  }
  return c;
}

Ft12Frame Ft12Frame::single_char() {
  Ft12Frame f;
  f.kind = Kind::kSingleChar;
  return f;
}

Ft12Frame Ft12Frame::fixed(LinkControl control, std::uint8_t address) {
  Ft12Frame f;
  f.kind = Kind::kFixed;
  f.control = control;
  f.address = address;
  return f;
}

Ft12Frame Ft12Frame::variable(LinkControl control, std::uint8_t address,
                              std::vector<std::uint8_t> asdu) {
  Ft12Frame f;
  f.kind = Kind::kVariable;
  f.control = control;
  f.address = address;
  f.user_data = std::move(asdu);
  return f;
}

std::vector<std::uint8_t> Ft12Frame::encode() const {
  ByteWriter w;
  switch (kind) {
    case Kind::kSingleChar:
      w.u8(kSingleChar);
      break;
    case Kind::kFixed: {
      w.u8(kFixedStart);
      std::uint8_t body[2] = {control.encode(), address};
      w.bytes(body);
      w.u8(checksum(body));
      w.u8(kStop);
      break;
    }
    case Kind::kVariable: {
      w.u8(kVariableStart);
      auto len = static_cast<std::uint8_t>(2 + user_data.size());
      w.u8(len);
      w.u8(len);
      w.u8(kVariableStart);
      const std::size_t body_start = w.size();
      w.u8(control.encode());
      w.u8(address);
      w.bytes(user_data);
      w.u8(checksum(w.view().subspan(body_start)));
      w.u8(kStop);
      break;
    }
  }
  return w.take();
}

Result<Ft12Frame> decode_ft12(ByteReader& r) {
  auto start = r.u8();
  if (!start) return start.error();

  if (start.value() == kSingleChar) return Ft12Frame::single_char();

  if (start.value() == kFixedStart) {
    auto control = r.u8();
    auto address = r.u8();
    auto sum = r.u8();
    auto stop = r.u8();
    if (!stop) return Err("truncated", "fixed frame");
    std::uint8_t body[2] = {control.value(), address.value()};
    if (sum.value() != checksum(body)) return Err("bad-checksum", "fixed frame");
    if (stop.value() != kStop) return Err("bad-stop-octet");
    return Ft12Frame::fixed(LinkControl::decode(control.value()), address.value());
  }

  if (start.value() == kVariableStart) {
    auto len1 = r.u8();
    auto len2 = r.u8();
    auto start2 = r.u8();
    if (!start2) return Err("truncated", "variable header");
    if (len1.value() != len2.value()) return Err("length-mismatch");
    if (start2.value() != kVariableStart) return Err("bad-second-start");
    if (len1.value() < 2) return Err("bad-length", std::to_string(len1.value()));
    auto body = r.bytes(len1.value());
    if (!body) return Err("truncated", "variable body");
    auto sum = r.u8();
    auto stop = r.u8();
    if (!stop) return Err("truncated", "variable trailer");
    if (sum.value() != checksum(body.value())) return Err("bad-checksum");
    if (stop.value() != kStop) return Err("bad-stop-octet");

    Ft12Frame f;
    f.kind = Ft12Frame::Kind::kVariable;
    f.control = LinkControl::decode(body.value()[0]);
    f.address = body.value()[1];
    f.user_data.assign(body.value().begin() + 2, body.value().end());
    return f;
  }

  return Err("bad-start-octet", std::to_string(start.value()));
}

Result<Ft12Frame> frame_asdu(const iec104::Asdu& asdu, std::uint8_t link_address,
                             bool fcb) {
  ByteWriter w;
  auto st = asdu.encode(w, serial_profile());
  if (!st.ok()) return st.error();
  LinkControl control;
  control.prm = true;
  control.fcb = fcb;
  control.fcv = true;
  control.function = static_cast<std::uint8_t>(PrimaryFunction::kUserDataConfirmed);
  return Ft12Frame::variable(control, link_address, w.take());
}

Result<iec104::Asdu> unframe_asdu(const Ft12Frame& frame) {
  if (frame.kind != Ft12Frame::Kind::kVariable) {
    return Err("no-user-data", "not a variable frame");
  }
  ByteReader r(frame.user_data);
  return iec104::Asdu::decode(r, serial_profile());
}

}  // namespace uncharted::iec101
