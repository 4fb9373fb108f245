// IEEE C37.118 synchrophasor protocol codec.
//
// The paper's tap (Fig 5) carried C37.118 alongside IEC 104 ("phasor
// measurement units reporting data to the SCADA server") and left it for
// future study. This module implements the 2005 frame formats — data,
// configuration (CFG-2), header and command — with CRC-CCITT integrity, so
// captures can include realistic PMU streams and the analysis layer can
// separate them from the telecontrol traffic.
#pragma once

#include <complex>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/bytes.hpp"
#include "util/expected.hpp"
#include "util/timebase.hpp"

namespace uncharted::synchro {

/// Default TCP port for C37.118 streams.
constexpr std::uint16_t kC37118Port = 4712;

/// CRC-CCITT (x^16 + x^12 + x^5 + 1, init 0xFFFF, no reflection) over a
/// byte range — the CHK field of every frame.
std::uint16_t crc_ccitt(std::span<const std::uint8_t> data);

enum class FrameType : std::uint8_t {
  kData = 0,
  kHeader = 1,
  kConfig1 = 2,
  kConfig2 = 3,
  kCommand = 4,
};

/// Common leading fields of every frame.
struct FrameHeader {
  FrameType type = FrameType::kData;
  std::uint16_t frame_size = 0;  ///< bytes incl. SYNC..CHK
  std::uint16_t idcode = 1;      ///< stream source id
  std::uint32_t soc = 0;         ///< UTC seconds
  std::uint32_t fracsec = 0;     ///< fraction-of-second / TIME_BASE + quality
};

/// One PMU's channel layout inside a configuration frame.
struct PmuConfig {
  std::string station_name;      ///< up to 16 chars, space padded on wire
  std::uint16_t idcode = 1;
  bool phasors_polar = false;    ///< FORMAT bit 0
  bool phasors_float = false;    ///< FORMAT bit 1
  bool analogs_float = false;    ///< FORMAT bit 2
  bool freq_float = false;       ///< FORMAT bit 3
  std::vector<std::string> phasor_names;   ///< 16 chars each on wire
  std::vector<std::string> analog_names;
  std::vector<std::uint32_t> phasor_units;  ///< PHUNIT conversion words
  std::vector<std::uint32_t> analog_units;
  std::uint16_t nominal_freq_code = 0;  ///< FNOM: 0 = 60 Hz, 1 = 50 Hz
  std::uint16_t config_count = 1;
};

/// CFG-2 frame.
struct ConfigFrame {
  FrameHeader header;
  std::uint32_t time_base = 1'000'000;
  std::vector<PmuConfig> pmus;
  std::uint16_t data_rate = 30;  ///< frames per second (signed on wire)
};

/// One PMU's measurements in a data frame.
struct PmuData {
  std::uint16_t stat = 0;
  std::vector<std::complex<double>> phasors;  ///< volts/amps, rectangular
  double freq_deviation_mhz = 0.0;            ///< from nominal, in mHz
  double rocof = 0.0;                         ///< Hz/s * 100 on the wire
  std::vector<double> analogs;
};

struct DataFrame {
  FrameHeader header;
  std::vector<PmuData> pmus;  ///< parallel to the config's pmus
};

struct HeaderFrame {
  FrameHeader header;
  std::string info;  ///< human-readable description
};

/// Command frame CMD values.
enum class Command : std::uint16_t {
  kTurnOffTransmission = 1,
  kTurnOnTransmission = 2,
  kSendHeader = 3,
  kSendConfig1 = 4,
  kSendConfig2 = 5,
};

struct CommandFrame {
  FrameHeader header;
  Command command = Command::kTurnOnTransmission;
};

using Frame = std::variant<DataFrame, ConfigFrame, HeaderFrame, CommandFrame>;

/// Encodes a configuration (CFG-2) frame.
std::vector<std::uint8_t> encode_config(const ConfigFrame& frame);

/// Encodes a data frame laid out according to `config` (formats and
/// channel counts are taken from it). Phasor values are scaled by the
/// PHUNIT factors when the integer format is selected.
std::vector<std::uint8_t> encode_data(const ConfigFrame& config, const DataFrame& frame);

std::vector<std::uint8_t> encode_command(const CommandFrame& frame);

/// Peeks the common header without consuming the frame.
Result<FrameHeader> peek_header(std::span<const std::uint8_t> bytes);

/// Decodes any frame. Data frames need the stream's configuration.
/// Verifies SYNC, size and CRC.
Result<Frame> decode_frame(std::span<const std::uint8_t> bytes,
                           const ConfigFrame* config = nullptr);

/// Splits a reassembled TCP stream into whole frames (by FRAMESIZE);
/// returns the number of bytes consumed.
struct StreamSplit {
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t consumed = 0;
};
StreamSplit split_stream(std::span<const std::uint8_t> stream);

}  // namespace uncharted::synchro
