#include "net/pcap.hpp"

#include "util/bytes.hpp"

namespace uncharted::net {

Result<PcapWriter> PcapWriter::open(const std::string& path, std::uint32_t snaplen) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "wb"));
  if (!f) return Err("open-failed", path);

  ByteWriter hdr(24);
  hdr.u32le(kPcapMagic);
  hdr.u16le(2);  // version major
  hdr.u16le(4);  // version minor
  hdr.u32le(0);  // thiszone
  hdr.u32le(0);  // sigfigs
  hdr.u32le(snaplen);
  hdr.u32le(kLinkTypeEthernet);
  if (std::fwrite(hdr.view().data(), 1, hdr.size(), f.get()) != hdr.size()) {
    return Err("write-failed", path);
  }
  return PcapWriter(std::move(f), snaplen);
}

Status PcapWriter::write(Timestamp ts, std::span<const std::uint8_t> frame) {
  if (!file_) return Err("closed");
  std::uint32_t incl = static_cast<std::uint32_t>(frame.size());
  if (incl > snaplen_) incl = snaplen_;

  ByteWriter rec(16);
  rec.u32le(timestamp_sec(ts));
  rec.u32le(timestamp_usec(ts));
  rec.u32le(incl);
  rec.u32le(static_cast<std::uint32_t>(frame.size()));
  if (std::fwrite(rec.view().data(), 1, rec.size(), file_.get()) != rec.size() ||
      std::fwrite(frame.data(), 1, incl, file_.get()) != incl) {
    return Err("write-failed");
  }
  ++packets_;
  return Status::Ok();
}

Status PcapWriter::close() {
  if (!file_) return Status::Ok();
  std::FILE* raw = file_.release();
  if (std::fclose(raw) != 0) return Err("close-failed");
  return Status::Ok();
}

namespace {

/// A drained queue keeps buffers up to this size for its next frames, so a
/// queue that drains after every read allocates nothing; larger buffers go
/// back to the allocator.
constexpr std::size_t kRetainQueueBytes = 64 * 1024;

template <typename T>
void give_back(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

void FrameQueue::reclaim() {
  if (empty()) {
    entries_.clear();
    bytes_.clear();
    head_ = 0;
    base_ = 0;
    if (bytes_.capacity() > kRetainQueueBytes) give_back(bytes_);
    if (entries_.capacity() * sizeof(Entry) > kRetainQueueBytes) give_back(entries_);
    return;
  }
  const std::size_t consumed = entries_[head_].offset - base_;
  if (consumed * 2 > bytes_.size()) {
    bytes_.erase(bytes_.begin(),
                 bytes_.begin() + static_cast<std::ptrdiff_t>(consumed));
    base_ += consumed;
  }
  if (head_ * 2 > entries_.size()) {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void FrameQueue::release() {
  give_back(entries_);
  give_back(bytes_);
  head_ = 0;
  base_ = 0;
}

std::vector<FrameView> as_frame_views(std::span<const CapturedPacket> packets) {
  std::vector<FrameView> views;
  views.reserve(packets.size());
  for (const auto& pkt : packets) {
    views.push_back(as_frame_view(pkt));
  }
  return views;
}

Result<PcapCursor> PcapCursor::open(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  auto magic = r.u32le();
  if (!magic) return Err("truncated", "pcap global header");
  bool swapped;
  if (magic.value() == kPcapMagic) {
    swapped = false;
  } else if (magic.value() == kPcapMagicSwapped) {
    swapped = true;
  } else {
    return Err("bad-magic", "not a classic pcap file");
  }
  auto u16 = [&]() { return swapped ? r.u16be() : r.u16le(); };
  auto u32 = [&]() { return swapped ? r.u32be() : r.u32le(); };

  auto vmaj = u16();
  auto vmin = u16();
  if (!vmin) return Err("truncated", "pcap version");
  (void)vmaj;
  if (!r.skip(8).ok()) return Err("truncated", "pcap tz/sigfigs");
  auto snaplen = u32();
  auto linktype = u32();
  if (!linktype) return Err("truncated", "pcap linktype");
  (void)snaplen;
  if (linktype.value() != kLinkTypeEthernet) {
    return Err("bad-linktype", std::to_string(linktype.value()));
  }
  return PcapCursor(data, r.position(), swapped);
}

bool PcapCursor::next(FrameView& out) {
  if (done_ || offset_ >= data_.size()) return false;
  // One length check per record header, then fixed-offset loads:
  // ts_sec, ts_usec, incl_len, orig_len.
  constexpr std::size_t kRecordHeader = 16;
  const std::size_t left = data_.size() - offset_;
  if (left < kRecordHeader) {
    done_ = true;
    truncated_tail_ = true;
    warning_ = "pcap record header cut short after " + std::to_string(records_) +
               " packets";
    return false;
  }
  const std::uint8_t* const h = data_.data() + offset_;
  auto u32 = [this](const std::uint8_t* p) {
    return swapped_ ? load_u32be(p) : load_u32le(p);
  };
  const std::uint32_t incl = u32(h + 8);
  if (incl > left - kRecordHeader) {
    done_ = true;
    truncated_tail_ = true;
    warning_ = "pcap record body cut short after " + std::to_string(records_) +
               " packets";
    return false;
  }
  out.ts = make_timestamp(u32(h), u32(h + 4));
  out.original_length = u32(h + 12);
  out.data = data_.subspan(offset_ + kRecordHeader, incl);
  offset_ += kRecordHeader + incl;
  ++records_;
  return true;
}

}  // namespace uncharted::net
