// CP56Time2a: the 7-octet binary time format of IEC 60870-5.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.hpp"
#include "util/expected.hpp"
#include "util/timebase.hpp"

namespace uncharted::iec104 {

/// Seven-octet absolute time: milliseconds-of-minute, minute, hour,
/// day-of-month + day-of-week, month, two-digit year.
struct Cp56Time2a {
  std::uint16_t milliseconds = 0;  ///< 0..59999 (ms within the minute)
  std::uint8_t minute = 0;         ///< 0..59
  bool invalid = false;            ///< IV bit
  std::uint8_t hour = 0;           ///< 0..23
  bool summer_time = false;        ///< SU bit
  std::uint8_t day_of_month = 1;   ///< 1..31
  std::uint8_t day_of_week = 0;    ///< 1..7, 0 = unused
  std::uint8_t month = 1;          ///< 1..12
  std::uint8_t year = 0;           ///< 0..99; 70..99 = 19xx, 0..69 = 20xx

  static constexpr std::size_t kSize = 7;

  void encode(ByteWriter& w) const;
  static Result<Cp56Time2a> decode(ByteReader& r);
  /// Fixed-offset decode of the 7 octets at `p`, which the caller has
  /// length-checked: the fields decode() reads, and false where decode()
  /// rejects an out-of-range field. No error detail.
  static bool decode_at(const std::uint8_t* p, Cp56Time2a& out);

  /// Conversion to/from microseconds since the Unix epoch. Date math uses
  /// the proleptic Gregorian calendar; two-digit years map to 1970..2069
  /// (the IEC 60870-5 pivot), so the epoch round-trips exactly.
  static Cp56Time2a from_timestamp(Timestamp ts);
  Timestamp to_timestamp() const;

  /// "2020-10-27 14:03:22.512" formatting.
  std::string str() const;

  bool operator==(const Cp56Time2a&) const = default;
};

}  // namespace uncharted::iec104
