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
/// buffer it was cut from (an mmap'd file, a FrameQueue or an owned byte
/// vector), which must outlive the view. The ingest and analysis layers
/// take only these. CapturedPacket remains the owning form of the
/// simulator's and fault injector's output; a frame that must outlive the
/// call that delivered it waits in a FrameQueue.
struct FrameView {
  Timestamp ts = 0;
  std::uint32_t original_length = 0;
  std::span<const std::uint8_t> data;
};

/// Frames held past the call that delivered them: a FIFO of entries over
/// one byte buffer. pop() only advances the head, so a view of the popped
/// frame stays valid until reclaim(), which compacts the buffer once its
/// consumed prefix passes half of it and resets it when the queue empties.
/// The live daemon's per-stream merge queues and the ingest lanes' staging,
/// pending and deferred batches are all FrameQueues.
class FrameQueue {
 public:
  bool empty() const { return head_ == entries_.size(); }
  std::size_t size() const { return entries_.size() - head_; }
  Timestamp front_ts() const { return entries_[head_].ts; }
  FrameView front() const {
    const Entry& f = entries_[head_];
    return FrameView{
        f.ts, f.original_length,
        std::span<const std::uint8_t>(bytes_.data() + (f.offset - base_), f.len)};
  }
  void push(Timestamp ts, std::uint32_t original_length,
            std::span<const std::uint8_t> payload) {
    entries_.push_back(Entry{ts, original_length,
                             static_cast<std::uint32_t>(payload.size()),
                             base_ + bytes_.size()});
    bytes_.insert(bytes_.end(), payload.begin(), payload.end());
  }
  void pop() { ++head_; }
  void reclaim();
  /// Drops every frame and gives the buffers' memory back.
  void release();

 private:
  /// One queued frame. `offset` is the position of its payload in the
  /// queue's byte sequence since the queue last emptied.
  struct Entry {
    Timestamp ts = 0;
    std::uint32_t original_length = 0;
    std::uint32_t len = 0;
    std::size_t offset = 0;
  };

  std::vector<Entry> entries_;
  std::size_t head_ = 0;
  std::vector<std::uint8_t> bytes_;
  std::size_t base_ = 0;  ///< byte-sequence position of bytes_[0]
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

}  // namespace uncharted::net
