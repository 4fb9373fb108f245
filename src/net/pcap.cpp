#include "net/pcap.hpp"

#include "net/mapping.hpp"
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

Result<std::vector<CapturedPacket>> PcapReader::read_file(const std::string& path) {
  auto read = read_file_tolerant(path);
  if (!read) return read.error();
  if (read->truncated_tail) return Err("truncated", read->warning);
  return std::move(read->packets);
}

Result<PcapReader::TolerantRead> PcapReader::read_file_tolerant(const std::string& path) {
  auto mapping = PcapMapping::open(path);
  if (!mapping) return mapping.error();
  return read_buffer_tolerant(mapping->bytes());
}

Result<std::vector<CapturedPacket>> PcapReader::read_buffer(
    std::span<const std::uint8_t> data) {
  auto read = read_buffer_tolerant(data);
  if (!read) return read.error();
  if (read->truncated_tail) return Err("truncated", read->warning);
  return std::move(read->packets);
}

Result<PcapReader::TolerantRead> PcapReader::read_buffer_tolerant(
    std::span<const std::uint8_t> data) {
  auto cursor = PcapCursor::open(data);
  if (!cursor) return cursor.error();

  TolerantRead out;
  FrameView view;
  while (cursor->next(view)) {
    CapturedPacket pkt;
    pkt.ts = view.ts;
    pkt.original_length = view.original_length;
    pkt.data.assign(view.data.begin(), view.data.end());
    out.packets.push_back(std::move(pkt));
  }
  out.truncated_tail = cursor->truncated_tail();
  out.warning = cursor->warning();
  return out;
}

}  // namespace uncharted::net
