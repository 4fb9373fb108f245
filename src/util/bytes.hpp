// Bounds-checked byte readers/writers with explicit endianness.
//
// Network headers (Ethernet/IPv4/TCP, pcap) are big-endian or host-defined;
// IEC 60870-5-104 fields are little-endian. Both views are provided and every
// access is range-checked: a truncated capture must surface as a decode
// error, never as UB.
//
// The readers are defined inline: decode loops call them tens of millions of
// times per capture, and an out-of-line call per field read dominated the
// ingest profile. Only the failure path (which allocates an error message)
// stays out of line.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/expected.hpp"

namespace uncharted {

/// Unchecked loads at a fixed offset. The caller has already checked that
/// the bytes exist: fixed-offset header decoders check a header's length
/// once and then read every field through these. Assembled in unsigned
/// arithmetic (the implicit uint8_t -> int promotion of `b << 8` is a signed
/// shift); the compiler folds each into one load and a byte swap.
inline std::uint16_t load_u16be(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((static_cast<std::uint32_t>(p[0]) << 8) |
                                    static_cast<std::uint32_t>(p[1]));
}

inline std::uint16_t load_u16le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint32_t>(p[0]) |
                                    (static_cast<std::uint32_t>(p[1]) << 8));
}

/// The 3-octet little-endian integer of an IEC 60870-5 information object
/// address (and of a file length).
inline std::uint32_t load_u24le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16);
}

inline std::uint32_t load_u32be(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

inline std::uint32_t load_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// IEEE-754 single precision, little-endian (the IEC 104 float encoding).
inline float load_f32le(const std::uint8_t* p) {
  return std::bit_cast<float>(load_u32le(p));
}

/// Sequential reader over a non-owning byte span. All reads are checked.
/// A failed read poisons the reader: every subsequent read also fails, so
/// multi-field decode chains can check only the final result without a
/// shorter later read "succeeding" past an earlier failure.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool empty() const { return remaining() == 0; }
  bool failed() const { return failed_; }

  /// True if at least n bytes remain and no prior read has failed.
  bool can_read(std::size_t n) const { return !failed_ && remaining() >= n; }

  Result<std::uint8_t> u8() {
    if (!can_read(1)) return fail(1);
    return data_[pos_++];
  }

  Result<std::uint16_t> u16le() {
    if (!can_read(2)) return fail(2);
    std::uint16_t v = load_u16le(data_.data() + pos_);
    pos_ += 2;
    return v;
  }

  Result<std::uint16_t> u16be() {
    if (!can_read(2)) return fail(2);
    std::uint16_t v = load_u16be(data_.data() + pos_);
    pos_ += 2;
    return v;
  }

  Result<std::uint32_t> u32le() {
    if (!can_read(4)) return fail(4);
    std::uint32_t v = load_u32le(data_.data() + pos_);
    pos_ += 4;
    return v;
  }

  Result<std::uint32_t> u32be() {
    if (!can_read(4)) return fail(4);
    std::uint32_t v = load_u32be(data_.data() + pos_);
    pos_ += 4;
    return v;
  }

  Result<std::uint64_t> u64le() {
    if (!can_read(8)) return fail(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) |
          static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 8;
    return v;
  }

  /// IEEE-754 single precision, little-endian (IEC 104 float encoding).
  Result<float> f32le();
  /// IEEE-754 double precision, little-endian (checkpoint snapshots).
  Result<double> f64le();

  /// Returns a subspan of n bytes and advances.
  Result<std::span<const std::uint8_t>> bytes(std::size_t n) {
    if (!can_read(n)) return fail(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Skips n bytes.
  Status skip(std::size_t n) {
    if (!can_read(n)) return fail(n);
    pos_ += n;
    return Status::Ok();
  }

  /// Rewinds to an absolute position (must be <= size) and clears any
  /// failure state.
  void seek(std::size_t pos);

 private:
  /// Cold path: poisons the reader and builds the truncation error.
  Error fail(std::size_t want);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Append-only writer into an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16le(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u16be(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  }
  void u32le(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
  }
  void u32be(std::uint32_t v) {
    for (int i = 3; i >= 0; --i) {
      buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
  }
  void u64le(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
  }
  void f32le(float v);
  void f64le(double v);
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void patch_u16be(std::size_t pos, std::uint16_t v);

  std::size_t size() const { return buf_.size(); }
  std::span<const std::uint8_t> view() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Hex dump (for diagnostics and golden tests), e.g. "68 0e 02 00 ...".
std::string hex_dump(std::span<const std::uint8_t> data);

}  // namespace uncharted
