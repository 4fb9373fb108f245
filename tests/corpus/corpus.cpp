#include "corpus/corpus.hpp"

#include <array>
#include <filesystem>
#include <fstream>
#include <initializer_list>

#include "iccp/iccp.hpp"
#include "iec101/ft12.hpp"
#include "iec104/apdu.hpp"
#include "net/frame.hpp"
#include "net/pcap.hpp"
#include "netd/wire.hpp"
#include "synchro/c37118.hpp"
#include "util/bytes.hpp"

namespace uncharted::corpus {

namespace {

std::vector<std::uint8_t> encode_apdu(const iec104::Apdu& apdu,
                                      const iec104::CodecProfile& profile) {
  auto encoded = apdu.encode(profile);
  return encoded.ok() ? std::move(encoded).take() : std::vector<std::uint8_t>{};
}

iec104::Asdu measurement_asdu() {
  iec104::Asdu asdu;
  asdu.type = iec104::TypeId::M_ME_NC_1;
  asdu.cot.cause = iec104::Cause::kSpontaneous;
  asdu.common_address = 7;
  asdu.objects.push_back({1001, iec104::ShortFloat{230.5f, {}}, std::nullopt});
  return asdu;
}

void add_iec104(std::vector<Seed>& out) {
  using iec104::Apdu;
  using iec104::CodecProfile;

  auto meas = measurement_asdu();
  out.push_back({"apdu_i_std_float", Category::kIec104,
                 encode_apdu(Apdu::make_i(4, 2, meas), CodecProfile::standard())});

  // The paper's non-conforming layouts: O37 kept a 2-octet IOA after the
  // TCP/IP upgrade; O53/O58/O28 kept a 1-octet COT.
  out.push_back({"apdu_i_o37_2octet_ioa", Category::kIec104,
                 encode_apdu(Apdu::make_i(4, 2, meas), CodecProfile::legacy_ioa())});
  out.push_back({"apdu_i_o53_1octet_cot", Category::kIec104,
                 encode_apdu(Apdu::make_i(4, 2, meas), CodecProfile::legacy_cot())});
  out.push_back({"apdu_i_legacy_both", Category::kIec104,
                 encode_apdu(Apdu::make_i(4, 2, meas), CodecProfile::legacy_both())});

  // Sequence-addressed single points (SQ bit exercise).
  iec104::Asdu seq;
  seq.type = iec104::TypeId::M_SP_NA_1;
  seq.sequence = true;
  seq.cot.cause = iec104::Cause::kInterrogatedByStation;
  seq.common_address = 7;
  for (int i = 0; i < 4; ++i) {
    seq.objects.push_back({static_cast<std::uint32_t>(2000 + i),
                           iec104::SinglePoint{(i % 2) != 0, {}}, std::nullopt});
  }
  out.push_back({"apdu_i_sq_single_points", Category::kIec104,
                 encode_apdu(Apdu::make_i(9, 9, seq), CodecProfile::standard())});

  // Time-tagged measurement (CP56Time2a on the wire).
  iec104::Asdu timed;
  timed.type = iec104::TypeId::M_ME_TF_1;
  timed.cot.cause = iec104::Cause::kSpontaneous;
  timed.common_address = 7;
  iec104::InformationObject obj;
  obj.ioa = 3001;
  obj.value = iec104::ShortFloat{59.98f, {}};
  obj.time = iec104::Cp56Time2a::from_timestamp(1560556800ULL * 1'000'000);
  timed.objects.push_back(obj);
  out.push_back({"apdu_i_time_tagged", Category::kIec104,
                 encode_apdu(Apdu::make_i(5, 3, timed), CodecProfile::standard())});

  // Interrogation command (system direction).
  iec104::Asdu gi;
  gi.type = iec104::TypeId::C_IC_NA_1;
  gi.cot.cause = iec104::Cause::kActivation;
  gi.common_address = 7;
  gi.objects.push_back({0, iec104::InterrogationCommand{20}, std::nullopt});
  out.push_back({"apdu_i_interrogation", Category::kIec104,
                 encode_apdu(Apdu::make_i(0, 0, gi), CodecProfile::standard())});

  // S- and U-format control frames.
  out.push_back({"apdu_s_ack", Category::kIec104,
                 encode_apdu(Apdu::make_s(12), CodecProfile::standard())});
  out.push_back({"apdu_u_startdt", Category::kIec104,
                 encode_apdu(Apdu::make_u(iec104::UFunction::kStartDtAct),
                             CodecProfile::standard())});
  out.push_back({"apdu_u_testfr", Category::kIec104,
                 encode_apdu(Apdu::make_u(iec104::UFunction::kTestFrAct),
                             CodecProfile::standard())});

  // Structurally broken frames the stream parser must frame around.
  auto valid = encode_apdu(Apdu::make_i(4, 2, meas), CodecProfile::standard());
  auto truncated = valid;
  if (truncated.size() > 3) truncated.resize(truncated.size() / 2);
  out.push_back({"apdu_truncated", Category::kIec104, std::move(truncated)});

  // Length octet claims more bytes than follow.
  auto oversized = valid;
  if (oversized.size() > 1) oversized[1] = 0xfd;
  out.push_back({"apdu_oversized_length", Category::kIec104, std::move(oversized)});

  out.push_back({"apdu_bad_start_byte", Category::kIec104,
                 {0x69, 0x04, 0x43, 0x00, 0x00, 0x00}});
}

// Byte streams shaped like what the fault injector leaves behind after
// loss, corruption and desync — deterministic snapshots of the damage the
// chaos sweep produces, so fuzzers start from realistic degraded inputs
// and the parser's resync taxonomy is pinned at the corpus level.
void add_fault_streams(std::vector<Seed>& out) {
  using iec104::Apdu;
  using iec104::CodecProfile;

  auto meas = measurement_asdu();
  auto i_frame = encode_apdu(Apdu::make_i(4, 2, meas), CodecProfile::standard());
  auto u_frame = encode_apdu(Apdu::make_u(iec104::UFunction::kTestFrAct),
                             CodecProfile::standard());
  auto s_frame = encode_apdu(Apdu::make_s(12), CodecProfile::standard());
  auto concat = [](std::initializer_list<std::vector<std::uint8_t>> parts) {
    std::vector<std::uint8_t> joined;
    for (const auto& p : parts) joined.insert(joined.end(), p.begin(), p.end());
    return joined;
  };

  // Garble damage: line noise between two intact APDUs (one resync).
  out.push_back({"fault_garbage_between_apdus", Category::kIec104,
                 concat({i_frame, {0xde, 0xad, 0xbe, 0xef}, i_frame})});

  // Truncation: the capture (or a skipped gap) cuts an APDU in half.
  auto half = i_frame;
  half.resize(half.size() / 2);
  out.push_back({"fault_truncated_mid_apdu", Category::kIec104,
                 concat({u_frame, half})});

  // Desync: the head of an APDU is missing, so framing lands mid-body and
  // must hunt for the next genuine 0x68.
  std::vector<std::uint8_t> tail(i_frame.begin() + 3, i_frame.end());
  out.push_back({"fault_desync_head_cut", Category::kIec104,
                 concat({tail, i_frame})});

  // A flipped length octet swallows the start of the next frame.
  auto bad_len = i_frame;
  if (bad_len.size() > 1) bad_len[1] = static_cast<std::uint8_t>(bad_len[1] + 7);
  out.push_back({"fault_corrupt_length_octet", Category::kIec104,
                 concat({bad_len, s_frame, u_frame})});

  // A bit flip inside the control field: well-framed but undecodable.
  auto bad_cf = i_frame;
  if (bad_cf.size() > 2) bad_cf[2] = 0x03;  // U-format with function bits 0
  out.push_back({"fault_bitflip_control_field", Category::kIec104,
                 concat({bad_cf, i_frame})});

  // Pure noise — nothing to resynchronize onto.
  out.push_back({"fault_all_garbage", Category::kIec104,
                 {0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa}});

  // A run of fake start bytes: every resync lands on another 0x68.
  out.push_back({"fault_start_byte_flood", Category::kIec104,
                 concat({{0x68, 0x68, 0x68, 0x68, 0x68, 0x68}, u_frame})});

  // Length below the 4-byte control-field minimum.
  out.push_back({"fault_undersized_length", Category::kIec104,
                 concat({{0x68, 0x02, 0x43, 0x00}, s_frame})});

  // The byte-level shape of a TCP retransmission that slipped through:
  // the same I-frame twice, back to back.
  out.push_back({"fault_duplicated_apdu", Category::kIec104,
                 concat({i_frame, i_frame})});

  // Control traffic interleaved with short noise bursts — the steady
  // state of a link at a few percent corruption.
  out.push_back({"fault_noisy_control_channel", Category::kIec104,
                 concat({u_frame, {0x00, 0x13}, s_frame, {0xfe}, u_frame})});
}

void add_ft12(std::vector<Seed>& out) {
  using iec101::Ft12Frame;
  using iec101::LinkControl;

  out.push_back({"ft12_single_char_ack", Category::kFt12,
                 Ft12Frame::single_char().encode()});

  LinkControl reset;
  reset.prm = true;
  reset.function = static_cast<std::uint8_t>(iec101::PrimaryFunction::kResetRemoteLink);
  out.push_back({"ft12_fixed_reset_link", Category::kFt12,
                 Ft12Frame::fixed(reset, 21).encode()});

  // Variable frame carrying a serial-profile ASDU — byte-identical to what
  // an un-reconfigured upgrade ships over TCP (paper §6.1).
  auto framed = iec101::frame_asdu(measurement_asdu(), 21, true);
  if (framed.ok()) {
    out.push_back({"ft12_variable_user_data", Category::kFt12, framed->encode()});
    auto bad_checksum = framed->encode();
    if (bad_checksum.size() > 2) bad_checksum[bad_checksum.size() - 2] ^= 0xff;
    out.push_back({"ft12_bad_checksum", Category::kFt12, std::move(bad_checksum)});
  }
}

void add_iccp(std::vector<Seed>& out) {
  iccp::Message assoc;
  assoc.type = iccp::MessageType::kAssociationRequest;
  assoc.invoke_id = 1;
  assoc.association_name = "CENTER_A-CENTER_B";
  out.push_back({"iccp_association_request", Category::kIccp, assoc.to_wire()});

  iccp::Message report;
  report.type = iccp::MessageType::kInformationReport;
  report.invoke_id = 42;
  report.points.push_back({"KV.BUS7_VOLTAGE", 347.2, 0});
  report.points.push_back({"MW.TIE_LINE_4", -121.5, 0});
  out.push_back({"iccp_information_report", Category::kIccp, report.to_wire()});

  iccp::Message read;
  read.type = iccp::MessageType::kReadRequest;
  read.invoke_id = 7;
  read.names = {"KV.BUS7_VOLTAGE"};
  out.push_back({"iccp_read_request", Category::kIccp, read.to_wire()});

  // TPKT header whose length field exceeds the available bytes.
  auto truncated = report.to_wire();
  if (truncated.size() > 6) truncated.resize(6);
  out.push_back({"iccp_truncated_tpkt", Category::kIccp, std::move(truncated)});
}

synchro::ConfigFrame pmu_config() {
  synchro::ConfigFrame cfg;
  cfg.header.idcode = 7734;
  synchro::PmuConfig pmu;
  pmu.station_name = "STATION_A";
  pmu.idcode = 7734;
  pmu.phasors_float = true;
  pmu.freq_float = true;
  pmu.phasor_names = {"VA", "VB"};
  pmu.phasor_units = {915527, 915527};
  cfg.pmus.push_back(pmu);
  return cfg;
}

void add_c37118(std::vector<Seed>& out) {
  auto cfg = pmu_config();
  out.push_back({"c37118_config2", Category::kC37118, synchro::encode_config(cfg)});

  synchro::DataFrame data;
  data.header.idcode = 7734;
  synchro::PmuData pmu;
  pmu.phasors = {{230.0, 12.0}, {-115.0, 199.2}};
  pmu.freq_deviation_mhz = 12.0;
  data.pmus.push_back(pmu);
  out.push_back({"c37118_data", Category::kC37118, synchro::encode_data(cfg, data)});

  synchro::CommandFrame cmd;
  cmd.header.idcode = 7734;
  cmd.command = synchro::Command::kTurnOnTransmission;
  out.push_back({"c37118_command", Category::kC37118, synchro::encode_command(cmd)});

  auto bad_crc = synchro::encode_config(cfg);
  if (!bad_crc.empty()) bad_crc.back() ^= 0xff;
  out.push_back({"c37118_bad_crc", Category::kC37118, std::move(bad_crc)});
}

void add_frames(std::vector<Seed>& out) {
  std::uint8_t payload[] = {0x68, 0x04, 0x43, 0x00, 0x00, 0x00};
  net::TcpSegmentSpec spec;
  spec.src_ip = net::Ipv4Addr::from_octets(10, 0, 0, 1);
  spec.dst_ip = net::Ipv4Addr::from_octets(10, 1, 0, 1);
  spec.src_port = 40000;
  spec.dst_port = 2404;
  spec.flags = 0x18;  // PSH|ACK
  spec.payload = payload;
  auto frame = net::build_tcp_frame(spec);
  out.push_back({"eth_tcp_iec104_segment", Category::kFrame, frame});

  auto short_ip = frame;
  if (short_ip.size() > 30) short_ip.resize(30);
  out.push_back({"eth_truncated_ip_header", Category::kFrame, std::move(short_ip)});

  auto bad_checksum = frame;
  if (bad_checksum.size() > 40) bad_checksum[40] ^= 0xff;
  out.push_back({"eth_corrupted_byte", Category::kFrame, std::move(bad_checksum)});

  // Minimal valid pcap: global header plus one 6-byte record.
  ByteWriter w;
  w.u32le(net::kPcapMagic);
  w.u16le(2);
  w.u16le(4);
  w.u32le(0);
  w.u32le(0);
  w.u32le(65535);
  w.u32le(1);
  w.u32le(0);
  w.u32le(0);
  w.u32le(6);
  w.u32le(6);
  for (int i = 0; i < 6; ++i) w.u8(0xaa);
  out.push_back({"pcap_one_record", Category::kFrame, w.take()});
}

// Op scripts for fuzz_conformance: byte 0 is flags (bit 0 = fresh
// connection, bit 1 = legacy whitelist off), then 5-byte records
// [op, a, b, c, d] where op & 7 selects the event (0/1 = I-frame with
// N(S) = a|b<<8 and N(R) = c|d<<8, 2 = S-frame, 3 = U-frame a%6,
// 4/5 = legacy-profile I-frame, 6 = parse failures), op & 8 sets the
// controller direction and op>>4 scales the time step. The seeds spell
// out the interesting attack shapes so mutation starts at the cliffs.
void add_conformance(std::vector<Seed>& out) {
  constexpr std::uint8_t kIOut = 0x00, kICtl = 0x08;
  constexpr std::uint8_t kSCtl = 0x0a;
  constexpr std::uint8_t kUOut = 0x03, kUCtl = 0x0b;
  constexpr std::uint8_t kFail = 0x06, kLegacyOut = 0x04;
  // U-function indices for op 3: a = 0 STARTDT act, 1 STARTDT con,
  // 2 STOPDT act, 3 STOPDT con, 4 TESTFR act, 5 TESTFR con.
  using Rec = std::array<std::uint8_t, 5>;
  auto script = [&out](const char* name, std::uint8_t flags,
                       std::initializer_list<Rec> records) {
    std::vector<std::uint8_t> bytes{flags};
    for (const auto& r : records) bytes.insert(bytes.end(), r.begin(), r.end());
    out.push_back({name, Category::kConformance, std::move(bytes)});
  };

  script("script_clean_session", 1,
         {Rec{kUCtl, 0}, Rec{kUOut, 1}, Rec{kIOut, 0}, Rec{kIOut, 1},
          Rec{kSCtl, 0, 0, 2, 0}});
  script("script_i_before_startdt", 1, {Rec{kICtl, 0}});
  script("script_desync_rewind", 1,
         {Rec{kUCtl, 0}, Rec{kUOut, 1}, Rec{kICtl, 0}, Rec{kICtl, 1},
          Rec{kICtl, 2}, Rec{kICtl, 0}, Rec{kICtl, 7}});
  script("script_ack_of_unsent", 1,
         {Rec{kUCtl, 0}, Rec{kUOut, 1}, Rec{kIOut, 0},
          Rec{kSCtl, 0, 0, 200, 0}});
  script("script_wrap_midstream", 0,
         {Rec{kIOut, 0xfe, 0x7f}, Rec{kIOut, 0xff, 0x7f}, Rec{kIOut, 0, 0},
          Rec{kIOut, 1, 0}, Rec{kSCtl, 0, 0, 2, 0}});
  script("script_confirm_storm", 1,
         {Rec{kUCtl, 1}, Rec{kUCtl, 5}, Rec{kUCtl, 5}, Rec{kUCtl, 3}});
  script("script_failure_flood", 0,
         {Rec{kFail, 0, 16, 0}, Rec{kFail, 1, 8, 4}, Rec{kFail, 2, 31, 7}});
  script("script_legacy_whitelist", 1,
         {Rec{kUCtl, 0}, Rec{kUOut, 1}, Rec{kLegacyOut, 0}, Rec{kLegacyOut + 1, 1}});
  script("script_stopdt_violation", 1,
         {Rec{kUCtl, 0}, Rec{kUOut, 1}, Rec{kICtl, 0}, Rec{kUCtl, 2},
          Rec{kUOut, 3}, Rec{kICtl, 1}});
  // One raw APDU so the stream half of the harness starts from real
  // framing too (the script half reads it as harmless ops).
  out.push_back({"stream_raw_i_frame", Category::kConformance,
                 encode_apdu(iec104::Apdu::make_i(4, 2, measurement_asdu()),
                             iec104::CodecProfile::standard())});
}

// Tapstream wire messages for fuzz_tapstream: every message kind of the
// live-ingest protocol (data/query/health hellos, the ack, a record with
// payload and its fin, a progress promise, the fin-ack), plus structurally
// broken variants so mutation starts at the framing cliffs.
void add_tapstream(std::vector<Seed>& out) {
  using netd::wire::Hello;
  using netd::wire::HelloKind;
  auto hello_bytes = [](HelloKind kind, std::uint64_t id, std::uint64_t total) {
    ByteWriter w;
    netd::wire::encode_hello(w, Hello{kind, id, total});
    return w.take();
  };
  out.push_back({"tap_hello_data", Category::kTapstream,
                 hello_bytes(HelloKind::kData, 42, 1000)});
  out.push_back({"tap_hello_query", Category::kTapstream,
                 hello_bytes(HelloKind::kQuery, 0, 0)});
  out.push_back({"tap_hello_health", Category::kTapstream,
                 hello_bytes(HelloKind::kHealth, 0, 0)});

  ByteWriter ack;
  netd::wire::encode_hello_ack(
      ack, {netd::wire::AckStatus::kAccepted, 512});
  out.push_back({"tap_hello_ack_resume", Category::kTapstream, ack.take()});

  // A record (header + payload) followed by the stream's fin, as a client
  // would send them back to back on the wire.
  ByteWriter rec;
  netd::wire::encode_record_header(rec, {123456789, 64, 8});
  for (int i = 0; i < 8; ++i) rec.u8(static_cast<std::uint8_t>(0x68 + i));
  netd::wire::encode_fin(rec, 1);
  out.push_back({"tap_record_then_fin", Category::kTapstream, rec.take()});

  // A paced client's shape: a record, a promise for its next one, the fin.
  ByteWriter paced;
  netd::wire::encode_record_header(paced, {123456789, 64, 4});
  for (int i = 0; i < 4; ++i) paced.u8(static_cast<std::uint8_t>(0x68 + i));
  netd::wire::encode_progress(paced, 123556789);
  netd::wire::encode_fin(paced, 1);
  out.push_back({"tap_record_progress_fin", Category::kTapstream, paced.take()});

  ByteWriter fin_ack;
  netd::wire::encode_fin_ack(fin_ack, 1000);
  out.push_back({"tap_fin_ack", Category::kTapstream, fin_ack.take()});

  auto bad_magic = hello_bytes(HelloKind::kData, 7, 9);
  bad_magic[0] ^= 0xff;
  out.push_back({"tap_hello_bad_magic", Category::kTapstream,
                 std::move(bad_magic)});

  auto truncated = hello_bytes(HelloKind::kData, 7, 9);
  truncated.resize(truncated.size() / 2);
  out.push_back({"tap_hello_truncated", Category::kTapstream,
                 std::move(truncated)});
}

}  // namespace

std::string category_name(Category c) {
  switch (c) {
    case Category::kIec104: return "iec104";
    case Category::kFt12: return "ft12";
    case Category::kIccp: return "iccp";
    case Category::kC37118: return "c37118";
    case Category::kFrame: return "frame";
    case Category::kConformance: return "conformance";
    case Category::kTapstream: return "tapstream";
  }
  return "unknown";
}

const std::vector<Seed>& seeds() {
  static const std::vector<Seed> all = [] {
    std::vector<Seed> out;
    add_iec104(out);
    add_fault_streams(out);
    add_ft12(out);
    add_iccp(out);
    add_c37118(out);
    add_frames(out);
    add_conformance(out);
    add_tapstream(out);
    return out;
  }();
  return all;
}

std::vector<const Seed*> seeds_for(Category c) {
  std::vector<const Seed*> out;
  for (const auto& seed : seeds()) {
    if (seed.category == c) out.push_back(&seed);
  }
  return out;
}

bool write_seed_files(const std::string& dir) {
  std::error_code ec;
  for (const auto& seed : seeds()) {
    auto subdir = std::filesystem::path(dir) / category_name(seed.category);
    std::filesystem::create_directories(subdir, ec);
    if (ec) return false;
    std::ofstream file(subdir / (seed.name + ".bin"), std::ios::binary);
    file.write(reinterpret_cast<const char*>(seed.bytes.data()),
               static_cast<std::streamsize>(seed.bytes.size()));
    if (!file) return false;
  }
  return true;
}

}  // namespace uncharted::corpus
