#include "analysis/background.hpp"

#include <algorithm>

#include "net/frame.hpp"
#include "net/reassembly.hpp"

namespace uncharted::analysis {

namespace {

struct PmuAccumulator {
  PmuStreamSummary summary;
  std::vector<std::uint8_t> buffer;
  std::optional<synchro::ConfigFrame> config;
  Timestamp first_data = 0;
  Timestamp last_data = 0;
  double freq_dev_sum = 0.0;

  void feed(Timestamp ts, std::span<const std::uint8_t> data) {
    buffer.insert(buffer.end(), data.begin(), data.end());
    auto split = synchro::split_stream(buffer);
    for (const auto& frame_bytes : split.frames) {
      auto frame = synchro::decode_frame(frame_bytes, config ? &*config : nullptr);
      if (!frame) {
        // Data frames before the CFG-2 cannot be decoded; still count them.
        auto header = synchro::peek_header(frame_bytes);
        if (header && header->type == synchro::FrameType::kData) {
          note_data(ts, 0.0, false);
        } else {
          ++summary.bad_frames;
        }
        continue;
      }
      if (const auto* cfg = std::get_if<synchro::ConfigFrame>(&frame.value())) {
        config = *cfg;
        ++summary.config_frames;
        summary.configured_rate = cfg->data_rate;
        if (!cfg->pmus.empty()) {
          summary.idcode = cfg->pmus[0].idcode;
          summary.station_name = cfg->pmus[0].station_name;
          summary.channels = cfg->pmus[0].phasor_names;
        }
      } else if (const auto* d = std::get_if<synchro::DataFrame>(&frame.value())) {
        double dev = d->pmus.empty() ? 0.0 : d->pmus[0].freq_deviation_mhz;
        note_data(ts, dev, true);
      } else if (std::holds_alternative<synchro::CommandFrame>(frame.value())) {
        ++summary.command_frames;
      }
    }
    buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(split.consumed));
  }

  void note_data(Timestamp ts, double dev, bool decoded) {
    ++summary.data_frames;
    if (decoded) freq_dev_sum += dev;
    if (first_data == 0) first_data = ts;
    last_data = std::max(last_data, ts);
  }

  void finalize() {
    if (summary.data_frames > 1 && last_data > first_data) {
      summary.measured_rate_fps = static_cast<double>(summary.data_frames - 1) /
                                  to_seconds(static_cast<DurationUs>(last_data - first_data));
    }
    if (summary.data_frames > 0) {
      summary.mean_freq_deviation_mhz =
          freq_dev_sum / static_cast<double>(summary.data_frames);
    }
  }
};

struct IccpAccumulator {
  IccpLinkSummary summary;
  std::vector<std::uint8_t> buffer;

  void feed(std::span<const std::uint8_t> data) {
    buffer.insert(buffer.end(), data.begin(), data.end());
    ByteReader r(buffer);
    std::size_t consumed = 0;
    while (true) {
      std::size_t before = r.position();
      auto msg = iccp::from_wire(r);
      if (!msg) {
        r.seek(before);
        break;
      }
      consumed = r.position();
      if (!msg->association_name.empty() &&
          std::find(summary.associations.begin(), summary.associations.end(),
                    msg->association_name) == summary.associations.end()) {
        summary.associations.push_back(msg->association_name);
      }
      switch (msg->type) {
        case iccp::MessageType::kAssociationRequest:
        case iccp::MessageType::kAssociationResponse:
          break;
        case iccp::MessageType::kInformationReport:
          ++summary.reports;
          break;
        case iccp::MessageType::kReadRequest:
        case iccp::MessageType::kReadResponse:
          ++summary.reads;
          break;
        case iccp::MessageType::kConclude:
          break;
      }
      summary.points += msg->points.size();
      for (const auto& p : msg->points) ++summary.point_names[p.name];
    }
    buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
};

}  // namespace

BackgroundTraffic analyze_background(std::span<const net::FrameView> frames) {
  BackgroundTraffic out;

  std::map<net::FlowKey, PmuAccumulator> pmu_dirs;
  std::map<std::pair<net::Ipv4Addr, net::Ipv4Addr>, IccpAccumulator> iccp_pairs;

  net::TcpReassembler reassembler([&](const net::FlowKey& key, Timestamp ts,
                                      std::span<const std::uint8_t> data) {
    if (key.dst_port == synchro::kC37118Port) {
      // PMU -> concentrator direction carries the frames.
      auto& acc = pmu_dirs[key];
      acc.summary.source = key.src_ip;
      acc.summary.sink = key.dst_ip;
      acc.feed(ts, data);
    } else if (key.src_port == iccp::kIsoTsapPort || key.dst_port == iccp::kIsoTsapPort) {
      net::Ipv4Addr a = key.src_ip, b = key.dst_ip;
      if (b < a) std::swap(a, b);
      auto& acc = iccp_pairs[std::make_pair(a, b)];
      acc.summary.a = a;
      acc.summary.b = b;
      acc.feed(data);
    }
  });

  for (const auto& view : frames) {
    auto frame = net::decode_frame(view.data);
    if (!frame) continue;
    bool c37 = frame->tcp.src_port == synchro::kC37118Port ||
               frame->tcp.dst_port == synchro::kC37118Port;
    bool iccp_port = frame->tcp.src_port == iccp::kIsoTsapPort ||
                     frame->tcp.dst_port == iccp::kIsoTsapPort;
    if (c37) ++out.c37118_packets;
    if (iccp_port) ++out.iccp_packets;
    if (c37 || iccp_port) reassembler.add(view.ts, frame.value());
  }

  for (auto& [key, acc] : pmu_dirs) {
    if (acc.summary.data_frames + acc.summary.config_frames == 0) continue;
    acc.finalize();
    out.pmu_streams.push_back(std::move(acc.summary));
  }
  for (auto& [key, acc] : iccp_pairs) {
    out.iccp_links.push_back(std::move(acc.summary));
  }
  return out;
}

}  // namespace uncharted::analysis
