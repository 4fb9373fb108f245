#include "iec104/cp56time.hpp"

#include <cstdio>

namespace uncharted::iec104 {

namespace {
// Days-from-civil / civil-from-days (Howard Hinnant's algorithms): exact
// conversions between {y, m, d} and days since 1970-01-01.
std::int64_t days_from_civil(std::int64_t y, unsigned m, unsigned d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m > 2 ? m - 3 : m + 9) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void civil_from_days(std::int64_t z, std::int64_t& y, unsigned& m, unsigned& d) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  d = doy - (153 * mp + 2) / 5 + 1;
  m = mp + (mp < 10 ? 3 : static_cast<unsigned>(-9));
  y += m <= 2;
}
}  // namespace

void Cp56Time2a::encode(ByteWriter& w) const {
  w.u16le(milliseconds);
  w.u8(static_cast<std::uint8_t>((minute & 0x3f) | (invalid ? 0x80 : 0)));
  w.u8(static_cast<std::uint8_t>((hour & 0x1f) | (summer_time ? 0x80 : 0)));
  w.u8(static_cast<std::uint8_t>((day_of_month & 0x1f) | ((day_of_week & 0x07) << 5)));
  w.u8(static_cast<std::uint8_t>(month & 0x0f));
  w.u8(static_cast<std::uint8_t>(year & 0x7f));
}

Result<Cp56Time2a> Cp56Time2a::decode(ByteReader& r) {
  auto ms = r.u16le();
  auto min = r.u8();
  auto hr = r.u8();
  auto dom = r.u8();
  auto mon = r.u8();
  auto yr = r.u8();
  if (!yr) return Err("truncated", "cp56time2a");
  Cp56Time2a t;
  t.milliseconds = ms.value();
  t.minute = static_cast<std::uint8_t>(min.value() & 0x3f);
  t.invalid = (min.value() & 0x80) != 0;
  t.hour = static_cast<std::uint8_t>(hr.value() & 0x1f);
  t.summer_time = (hr.value() & 0x80) != 0;
  t.day_of_month = static_cast<std::uint8_t>(dom.value() & 0x1f);
  t.day_of_week = static_cast<std::uint8_t>((dom.value() >> 5) & 0x07);
  t.month = static_cast<std::uint8_t>(mon.value() & 0x0f);
  t.year = static_cast<std::uint8_t>(yr.value() & 0x7f);
  if (t.milliseconds > 59999 || t.minute > 59 || t.hour > 23 || t.day_of_month == 0 ||
      t.day_of_month > 31 || t.month == 0 || t.month > 12) {
    return Err("bad-cp56time", t.str());
  }
  return t;
}

bool Cp56Time2a::decode_at(const std::uint8_t* p, Cp56Time2a& out) {
  out.milliseconds = load_u16le(p);
  out.minute = static_cast<std::uint8_t>(p[2] & 0x3f);
  out.invalid = (p[2] & 0x80) != 0;
  out.hour = static_cast<std::uint8_t>(p[3] & 0x1f);
  out.summer_time = (p[3] & 0x80) != 0;
  out.day_of_month = static_cast<std::uint8_t>(p[4] & 0x1f);
  out.day_of_week = static_cast<std::uint8_t>((p[4] >> 5) & 0x07);
  out.month = static_cast<std::uint8_t>(p[5] & 0x0f);
  out.year = static_cast<std::uint8_t>(p[6] & 0x7f);
  return out.milliseconds <= 59999 && out.minute <= 59 && out.hour <= 23 &&
         out.day_of_month != 0 && out.month != 0 && out.month <= 12;
}

Cp56Time2a Cp56Time2a::from_timestamp(Timestamp ts) {
  std::int64_t total_ms = static_cast<std::int64_t>(ts / 1000);
  std::int64_t days = total_ms / 86'400'000;
  std::int64_t ms_of_day = total_ms % 86'400'000;

  std::int64_t y;
  unsigned m, d;
  civil_from_days(days, y, m, d);

  Cp56Time2a t;
  // Euclidean remainder: for pre-2000 dates (y - 2000) % 100 is negative
  // and the old straight cast wrapped it through uint8_t into an
  // out-of-range year (e.g. 1970 -> 226). Two-digit years >= 70 mean 19xx
  // (see to_timestamp), so 1970 must encode as 70.
  std::int64_t two_digit = (y - 2000) % 100;
  if (two_digit < 0) two_digit += 100;
  t.year = static_cast<std::uint8_t>(two_digit);
  t.month = static_cast<std::uint8_t>(m);
  t.day_of_month = static_cast<std::uint8_t>(d);
  // ISO day of week: Monday=1..Sunday=7; 1970-01-01 was a Thursday (=4).
  t.day_of_week = static_cast<std::uint8_t>(((days % 7) + 10) % 7 + 1);
  t.hour = static_cast<std::uint8_t>(ms_of_day / 3'600'000);
  t.minute = static_cast<std::uint8_t>((ms_of_day / 60'000) % 60);
  t.milliseconds = static_cast<std::uint16_t>(ms_of_day % 60'000);
  return t;
}

Timestamp Cp56Time2a::to_timestamp() const {
  // IEC 60870-5 convention for the two-digit year: 70..99 are 1970..1999,
  // 0..69 are 2000..2069. Timestamp is unsigned microseconds since the
  // epoch, so both ranges are representable.
  const std::int64_t century = year >= 70 ? 1900 : 2000;
  std::int64_t days = days_from_civil(century + year, month, day_of_month);
  std::int64_t ms = days * 86'400'000 + static_cast<std::int64_t>(hour) * 3'600'000 +
                    static_cast<std::int64_t>(minute) * 60'000 + milliseconds;
  return static_cast<Timestamp>(ms) * 1000;
}

std::string Cp56Time2a::str() const {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%02u%02u-%02u-%02u %02u:%02u:%02u.%03u%s",
                year >= 70 ? 19u : 20u, static_cast<unsigned>(year),
                static_cast<unsigned>(month), static_cast<unsigned>(day_of_month),
                static_cast<unsigned>(hour), static_cast<unsigned>(minute),
                static_cast<unsigned>(milliseconds / 1000),
                static_cast<unsigned>(milliseconds % 1000), invalid ? " (IV)" : "");
  return buf;
}

}  // namespace uncharted::iec104
