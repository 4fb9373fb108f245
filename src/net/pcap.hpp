// Classic pcap (tcpdump) file format reader and writer.
//
// Implemented from scratch: magic 0xa1b2c3d4 (microsecond timestamps),
// version 2.4, link type Ethernet (1). Both native and byte-swapped files
// are readable. No libpcap dependency.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/expected.hpp"
#include "util/timebase.hpp"

namespace uncharted::net {

constexpr std::uint32_t kPcapMagic = 0xa1b2c3d4;
constexpr std::uint32_t kPcapMagicSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kLinkTypeEthernet = 1;
constexpr std::uint32_t kDefaultSnapLen = 65535;

/// One captured record: timestamp plus raw link-layer bytes.
struct CapturedPacket {
  Timestamp ts = 0;
  std::uint32_t original_length = 0;  ///< length on the wire (>= data.size())
  std::vector<std::uint8_t> data;     ///< possibly truncated to snaplen
};

/// Zero-copy view of one captured record: the span references the pcap
/// buffer it was cut from (an mmap'd file or an owned byte vector), which
/// must outlive the view. The ingest hot path runs on these; CapturedPacket
/// remains the owning form for callers that must hold packets past the
/// buffer (streaming deferral queues, fault-injection rewrites).
struct FrameView {
  Timestamp ts = 0;
  std::uint32_t original_length = 0;
  std::span<const std::uint8_t> data;
};

/// Borrows an owning packet as a view (a span into its buffer).
inline FrameView as_frame_view(const CapturedPacket& pkt) {
  return FrameView{pkt.ts, pkt.original_length, pkt.data};
}

/// Borrows owning packets as views (spans into each packet's buffer).
std::vector<FrameView> as_frame_views(std::span<const CapturedPacket> packets);

/// Forward cursor over pcap bytes yielding FrameViews without copying a
/// single payload byte. Parses the global header at open; next() walks
/// records until the end or a truncated tail (which is reported, not
/// fatal — a crashed or still-writing tcpdump leaves exactly that).
class PcapCursor {
 public:
  /// Validates the global header. Errors: truncation, bad magic, non-
  /// Ethernet link type. Byte-swapped files are readable.
  static Result<PcapCursor> open(std::span<const std::uint8_t> data);

  /// True and fills `out` while complete records remain.
  bool next(FrameView& out);

  /// The file ended mid-record (only meaningful once next() returned false).
  bool truncated_tail() const { return truncated_tail_; }
  /// Human-readable tail diagnosis; empty unless truncated_tail().
  const std::string& warning() const { return warning_; }

  std::uint64_t records() const { return records_; }
  /// Byte offset of the next unread record — a resume cursor over the
  /// mapped file.
  std::size_t offset() const { return offset_; }

 private:
  PcapCursor(std::span<const std::uint8_t> data, std::size_t offset, bool swapped)
      : data_(data), offset_(offset), swapped_(swapped) {}

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
  bool swapped_ = false;
  bool done_ = false;
  bool truncated_tail_ = false;
  std::uint64_t records_ = 0;
  std::string warning_;
};

/// Streams packets into a pcap file.
class PcapWriter {
 public:
  /// Creates/truncates `path` and writes the global header.
  static Result<PcapWriter> open(const std::string& path,
                                 std::uint32_t snaplen = kDefaultSnapLen);

  PcapWriter(PcapWriter&&) noexcept = default;
  PcapWriter& operator=(PcapWriter&&) noexcept = default;
  ~PcapWriter() = default;

  /// Appends one record; frames longer than snaplen are truncated.
  Status write(Timestamp ts, std::span<const std::uint8_t> frame);

  std::uint64_t packets_written() const { return packets_; }

  /// Flushes and closes; further writes are invalid.
  Status close();

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f) std::fclose(f);
    }
  };

  PcapWriter(std::unique_ptr<std::FILE, FileCloser> file, std::uint32_t snaplen)
      : file_(std::move(file)), snaplen_(snaplen) {}

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::uint32_t snaplen_;
  std::uint64_t packets_ = 0;
};

/// Reads a whole pcap file into memory (captures here are small: hours of
/// SCADA traffic is a few hundred MB at most; the paper's are far smaller).
class PcapReader {
 public:
  /// A tolerant read: every complete record, plus whether the file ended
  /// mid-record (a crashed or still-writing tcpdump leaves exactly this).
  struct TolerantRead {
    std::vector<CapturedPacket> packets;
    bool truncated_tail = false;
    std::string warning;  ///< non-empty iff truncated_tail
  };

  /// Parses the file; returns all records in capture order. A truncated
  /// final record is an error (strict mode).
  static Result<std::vector<CapturedPacket>> read_file(const std::string& path);

  /// Parses pcap bytes already in memory (used by tests).
  static Result<std::vector<CapturedPacket>> read_buffer(
      std::span<const std::uint8_t> data);

  /// Like read_file, but a truncated tail yields the complete prefix with
  /// a warning instead of an error. Header-level damage (bad magic, wrong
  /// link type) is still an error: nothing after it can be interpreted.
  static Result<TolerantRead> read_file_tolerant(const std::string& path);

  /// Tolerant parse of in-memory pcap bytes.
  static Result<TolerantRead> read_buffer_tolerant(std::span<const std::uint8_t> data);
};

}  // namespace uncharted::net
