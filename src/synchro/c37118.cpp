#include "synchro/c37118.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace uncharted::synchro {

namespace {

constexpr std::uint8_t kSyncByte = 0xaa;
constexpr std::uint8_t kVersion = 0x01;

void write_sync(ByteWriter& w, FrameType type) {
  w.u8(kSyncByte);
  w.u8(static_cast<std::uint8_t>((static_cast<std::uint8_t>(type) << 4) | kVersion));
}

void write_name16(ByteWriter& w, const std::string& name) {
  for (std::size_t i = 0; i < 16; ++i) {
    w.u8(i < name.size() ? static_cast<std::uint8_t>(name[i]) : ' ');
  }
}

std::string read_name16(ByteReader& r) {
  auto bytes = r.bytes(16);
  if (!bytes) return {};
  std::string s(bytes->begin(), bytes->end());
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

/// Finalizes a frame: patches FRAMESIZE and appends the CRC.
std::vector<std::uint8_t> finalize(ByteWriter&& w) {
  auto size = static_cast<std::uint16_t>(w.size() + 2);
  w.patch_u16be(2, size);
  std::uint16_t crc = crc_ccitt(w.view());
  w.u16be(crc);
  return w.take();
}

void write_common(ByteWriter& w, FrameType type, const FrameHeader& h) {
  write_sync(w, type);
  w.u16be(0);  // FRAMESIZE placeholder
  w.u16be(h.idcode);
  w.u32be(h.soc);
  w.u32be(h.fracsec);
}

std::uint16_t format_word(const PmuConfig& pmu) {
  std::uint16_t f = 0;
  if (pmu.phasors_polar) f |= 0x0001;
  if (pmu.phasors_float) f |= 0x0002;
  if (pmu.analogs_float) f |= 0x0004;
  if (pmu.freq_float) f |= 0x0008;
  return f;
}

}  // namespace

std::uint16_t crc_ccitt(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xffff;
  for (auto byte : data) {
    crc = static_cast<std::uint16_t>(crc ^ (static_cast<std::uint16_t>(byte) << 8));
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 0x8000) {
        crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
      } else {
        crc = static_cast<std::uint16_t>(crc << 1);
      }
    }
  }
  return crc;
}

std::vector<std::uint8_t> encode_config(const ConfigFrame& frame) {
  ByteWriter w;
  write_common(w, FrameType::kConfig2, frame.header);
  w.u32be(frame.time_base);
  w.u16be(static_cast<std::uint16_t>(frame.pmus.size()));
  for (const auto& pmu : frame.pmus) {
    write_name16(w, pmu.station_name);
    w.u16be(pmu.idcode);
    w.u16be(format_word(pmu));
    w.u16be(static_cast<std::uint16_t>(pmu.phasor_names.size()));
    w.u16be(static_cast<std::uint16_t>(pmu.analog_names.size()));
    w.u16be(0);  // DGNMR: digital words unsupported in this profile
    for (const auto& name : pmu.phasor_names) write_name16(w, name);
    for (const auto& name : pmu.analog_names) write_name16(w, name);
    for (std::size_t i = 0; i < pmu.phasor_names.size(); ++i) {
      w.u32be(i < pmu.phasor_units.size() ? pmu.phasor_units[i] : 1u);
    }
    for (std::size_t i = 0; i < pmu.analog_names.size(); ++i) {
      w.u32be(i < pmu.analog_units.size() ? pmu.analog_units[i] : 1u);
    }
    w.u16be(pmu.nominal_freq_code);
    w.u16be(pmu.config_count);
  }
  w.u16be(frame.data_rate);
  return finalize(std::move(w));
}

std::vector<std::uint8_t> encode_data(const ConfigFrame& config, const DataFrame& frame) {
  ByteWriter w;
  write_common(w, FrameType::kData, frame.header);
  for (std::size_t p = 0; p < config.pmus.size() && p < frame.pmus.size(); ++p) {
    const auto& cfg = config.pmus[p];
    const auto& data = frame.pmus[p];
    w.u16be(data.stat);
    for (std::size_t i = 0; i < cfg.phasor_names.size(); ++i) {
      std::complex<double> v =
          i < data.phasors.size() ? data.phasors[i] : std::complex<double>{};
      if (cfg.phasors_float) {
        // 32-bit floats; rectangular only in this profile.
        ByteWriter tmp;
        tmp.f32le(static_cast<float>(v.real()));
        // C37.118 floats are big-endian IEEE; reuse bit pattern.
        auto le = tmp.take();
        w.u8(le[3]);
        w.u8(le[2]);
        w.u8(le[1]);
        w.u8(le[0]);
        ByteWriter tmp2;
        tmp2.f32le(static_cast<float>(v.imag()));
        auto le2 = tmp2.take();
        w.u8(le2[3]);
        w.u8(le2[2]);
        w.u8(le2[1]);
        w.u8(le2[0]);
      } else {
        double scale = (i < cfg.phasor_units.size() ? cfg.phasor_units[i] & 0xffffff : 1);
        if (scale <= 0) scale = 1;
        // PHUNIT is in 1e-5 V/A per count.
        auto re = static_cast<std::int16_t>(std::lround(v.real() / (scale * 1e-5)));
        auto im = static_cast<std::int16_t>(std::lround(v.imag() / (scale * 1e-5)));
        w.u16be(static_cast<std::uint16_t>(re));
        w.u16be(static_cast<std::uint16_t>(im));
      }
    }
    if (cfg.freq_float) {
      ByteWriter tmp;
      tmp.f32le(static_cast<float>(data.freq_deviation_mhz / 1000.0));
      auto le = tmp.take();
      w.u8(le[3]);
      w.u8(le[2]);
      w.u8(le[1]);
      w.u8(le[0]);
      ByteWriter tmp2;
      tmp2.f32le(static_cast<float>(data.rocof));
      auto le2 = tmp2.take();
      w.u8(le2[3]);
      w.u8(le2[2]);
      w.u8(le2[1]);
      w.u8(le2[0]);
    } else {
      w.u16be(static_cast<std::uint16_t>(
          static_cast<std::int16_t>(std::lround(data.freq_deviation_mhz))));
      w.u16be(static_cast<std::uint16_t>(
          static_cast<std::int16_t>(std::lround(data.rocof * 100.0))));
    }
    for (std::size_t i = 0; i < cfg.analog_names.size(); ++i) {
      double v = i < data.analogs.size() ? data.analogs[i] : 0.0;
      if (cfg.analogs_float) {
        ByteWriter tmp;
        tmp.f32le(static_cast<float>(v));
        auto le = tmp.take();
        w.u8(le[3]);
        w.u8(le[2]);
        w.u8(le[1]);
        w.u8(le[0]);
      } else {
        w.u16be(static_cast<std::uint16_t>(static_cast<std::int16_t>(std::lround(v))));
      }
    }
  }
  return finalize(std::move(w));
}

std::vector<std::uint8_t> encode_command(const CommandFrame& frame) {
  ByteWriter w;
  write_common(w, FrameType::kCommand, frame.header);
  w.u16be(static_cast<std::uint16_t>(frame.command));
  return finalize(std::move(w));
}

Result<FrameHeader> peek_header(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto sync = r.u8();
  auto type_ver = r.u8();
  auto size = r.u16be();
  auto idcode = r.u16be();
  auto soc = r.u32be();
  auto fracsec = r.u32be();
  if (!fracsec) return Err("truncated", "c37.118 header");
  if (sync.value() != kSyncByte) return Err("bad-sync", std::to_string(sync.value()));
  std::uint8_t type_bits = (type_ver.value() >> 4) & 0x07;
  if (type_bits > 4) return Err("bad-frame-type", std::to_string(type_bits));
  FrameHeader h;
  h.type = static_cast<FrameType>(type_bits);
  h.frame_size = size.value();
  h.idcode = idcode.value();
  h.soc = soc.value();
  h.fracsec = fracsec.value();
  return h;
}

namespace {

double read_be_float(ByteReader& r) {
  auto bytes = r.bytes(4);
  if (!bytes) return 0.0;
  std::uint32_t raw = (static_cast<std::uint32_t>((*bytes)[0]) << 24) |
                      (static_cast<std::uint32_t>((*bytes)[1]) << 16) |
                      (static_cast<std::uint32_t>((*bytes)[2]) << 8) |
                      static_cast<std::uint32_t>((*bytes)[3]);
  return std::bit_cast<float>(raw);
}

Result<ConfigFrame> decode_config(const FrameHeader& h, ByteReader& r) {
  ConfigFrame out;
  out.header = h;
  auto tb = r.u32be();
  auto num = r.u16be();
  if (!num) return Err("truncated", "config counts");
  out.time_base = tb.value();
  for (std::uint16_t p = 0; p < num.value(); ++p) {
    PmuConfig pmu;
    pmu.station_name = read_name16(r);
    auto id = r.u16be();
    auto fmt = r.u16be();
    auto phnmr = r.u16be();
    auto annmr = r.u16be();
    auto dgnmr = r.u16be();
    if (!dgnmr) return Err("truncated", "pmu config");
    if (dgnmr.value() != 0) return Err("unsupported", "digital words");
    pmu.idcode = id.value();
    pmu.phasors_polar = fmt.value() & 0x0001;
    pmu.phasors_float = fmt.value() & 0x0002;
    pmu.analogs_float = fmt.value() & 0x0004;
    pmu.freq_float = fmt.value() & 0x0008;
    for (std::uint16_t i = 0; i < phnmr.value(); ++i) {
      pmu.phasor_names.push_back(read_name16(r));
    }
    for (std::uint16_t i = 0; i < annmr.value(); ++i) {
      pmu.analog_names.push_back(read_name16(r));
    }
    for (std::uint16_t i = 0; i < phnmr.value(); ++i) {
      auto unit = r.u32be();
      if (!unit) return Err("truncated", "phunit");
      pmu.phasor_units.push_back(unit.value());
    }
    for (std::uint16_t i = 0; i < annmr.value(); ++i) {
      auto unit = r.u32be();
      if (!unit) return Err("truncated", "anunit");
      pmu.analog_units.push_back(unit.value());
    }
    auto fnom = r.u16be();
    auto cfgcnt = r.u16be();
    if (!cfgcnt) return Err("truncated", "fnom/cfgcnt");
    pmu.nominal_freq_code = fnom.value();
    pmu.config_count = cfgcnt.value();
    out.pmus.push_back(std::move(pmu));
  }
  auto rate = r.u16be();
  if (!rate) return Err("truncated", "data rate");
  out.data_rate = rate.value();
  return out;
}

Result<DataFrame> decode_data(const FrameHeader& h, ByteReader& r,
                              const ConfigFrame& config) {
  DataFrame out;
  out.header = h;
  for (const auto& cfg : config.pmus) {
    PmuData data;
    auto stat = r.u16be();
    if (!stat) return Err("truncated", "stat");
    data.stat = stat.value();
    for (std::size_t i = 0; i < cfg.phasor_names.size(); ++i) {
      if (cfg.phasors_float) {
        double re = read_be_float(r);
        double im = read_be_float(r);
        data.phasors.emplace_back(re, im);
      } else {
        auto re = r.u16be();
        auto im = r.u16be();
        if (!im) return Err("truncated", "phasor");
        double scale = (i < cfg.phasor_units.size() ? cfg.phasor_units[i] & 0xffffff : 1);
        if (scale <= 0) scale = 1;
        data.phasors.emplace_back(
            static_cast<std::int16_t>(re.value()) * scale * 1e-5,
            static_cast<std::int16_t>(im.value()) * scale * 1e-5);
      }
    }
    if (cfg.freq_float) {
      data.freq_deviation_mhz = read_be_float(r) * 1000.0;
      data.rocof = read_be_float(r);
    } else {
      auto freq = r.u16be();
      auto rocof = r.u16be();
      if (!rocof) return Err("truncated", "freq");
      data.freq_deviation_mhz = static_cast<std::int16_t>(freq.value());
      data.rocof = static_cast<std::int16_t>(rocof.value()) / 100.0;
    }
    for (std::size_t i = 0; i < cfg.analog_names.size(); ++i) {
      if (cfg.analogs_float) {
        data.analogs.push_back(read_be_float(r));
      } else {
        auto v = r.u16be();
        if (!v) return Err("truncated", "analog");
        data.analogs.push_back(static_cast<std::int16_t>(v.value()));
      }
    }
    out.pmus.push_back(std::move(data));
  }
  return out;
}

}  // namespace

Result<Frame> decode_frame(std::span<const std::uint8_t> bytes,
                           const ConfigFrame* config) {
  auto header = peek_header(bytes);
  if (!header) return header.error();
  if (header->frame_size != bytes.size()) {
    return Err("size-mismatch", std::to_string(header->frame_size) + " vs " +
                                    std::to_string(bytes.size()));
  }
  if (bytes.size() < 16) return Err("truncated", "frame too small");
  std::uint16_t expected = crc_ccitt(bytes.subspan(0, bytes.size() - 2));
  ByteReader crc_tail(bytes.subspan(bytes.size() - 2));
  const auto actual = crc_tail.u16be();
  if (!actual) return Err("truncated", "CRC tail");
  if (expected != actual.value()) return Err("bad-crc");

  ByteReader r(bytes.subspan(14, bytes.size() - 16));
  switch (header->type) {
    case FrameType::kConfig1:
    case FrameType::kConfig2: {
      auto cfg = decode_config(header.value(), r);
      if (!cfg) return cfg.error();
      return Frame{std::move(cfg).take()};
    }
    case FrameType::kData: {
      if (!config) return Err("missing-config", "data frame needs CFG context");
      auto data = decode_data(header.value(), r, *config);
      if (!data) return data.error();
      return Frame{std::move(data).take()};
    }
    case FrameType::kHeader: {
      HeaderFrame hf;
      hf.header = header.value();
      while (!r.empty()) hf.info.push_back(static_cast<char>(r.u8().value()));
      return Frame{std::move(hf)};
    }
    case FrameType::kCommand: {
      auto cmd = r.u16be();
      if (!cmd) return cmd.error();
      CommandFrame cf;
      cf.header = header.value();
      cf.command = static_cast<Command>(cmd.value());
      return Frame{cf};
    }
  }
  return Err("bad-frame-type");
}

StreamSplit split_stream(std::span<const std::uint8_t> stream) {
  StreamSplit out;
  std::size_t pos = 0;
  while (pos + 4 <= stream.size()) {
    auto header = peek_header(stream.subspan(pos));
    if (!header) break;
    if (header->frame_size < 16 || pos + header->frame_size > stream.size()) break;
    auto frame = stream.subspan(pos, header->frame_size);
    out.frames.emplace_back(frame.begin(), frame.end());
    pos += header->frame_size;
  }
  out.consumed = pos;
  return out;
}

}  // namespace uncharted::synchro
