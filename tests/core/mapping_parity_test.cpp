// mmap-vs-read parity (DESIGN.md §15): PcapMapping serves a capture either
// as an mmap'd span or — when the kernel refuses to map — as an owned
// buffer filled by the chunked-read fallback. Everything downstream runs
// on FrameViews either way, so the two paths must produce byte-identical
// reports on clean captures, fault-injected captures, and truncated
// files, at every thread count. FaultyFileOps::set_fail_mmap forces the
// fallback deterministically. Where the file holds every packet, both must
// also equal the in-memory entry's report: the pcap cursor and a loop over
// owning packets are separate feeds into the one ingest engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/analyzer.hpp"
#include "core/export.hpp"
#include "faultinject/fault.hpp"
#include "faultinject/filefault.hpp"
#include "net/mapping.hpp"
#include "sim/capture.hpp"

namespace uncharted::core {
namespace {

std::string temp_pcap(const std::string& tag) {
  return "/tmp/uncharted_parity_" + tag + ".pcap";
}

void write_packets(const std::vector<net::CapturedPacket>& packets,
                   const std::string& path) {
  auto writer = net::PcapWriter::open(path);
  ASSERT_TRUE(writer.ok()) << writer.error().str();
  for (const auto& pkt : packets) {
    ASSERT_TRUE(writer->write(pkt.ts, pkt.data).ok());
  }
  ASSERT_TRUE(writer->close().ok());
}

/// Renders the full report (the deterministic surface; timings excluded)
/// so the comparison covers every section, not a sampled stat.
std::string rendered(const AnalysisReport& report, const NameMap& names) {
  return render_report(report, names);
}

/// Analyzes `path` through the real kernel (mmap) and through a FileOps
/// whose map_ro always fails (read fallback), and requires the rendered
/// reports to match byte for byte. When `packets` (the file's complete
/// contents) is given, both reports' JSON must also equal that of
/// CaptureAnalyzer::analyze over the packets in memory.
void expect_parity(const std::string& path, const NameMap& names, unsigned threads,
                   const std::vector<net::CapturedPacket>* packets = nullptr) {
  CaptureAnalyzer::Options options;
  options.threads = threads;

  auto via_mmap = CaptureAnalyzer::analyze_file(path, options, nullptr);
  ASSERT_TRUE(via_mmap.ok()) << via_mmap.error().str();

  faultinject::FaultyFileOps no_mmap;
  no_mmap.set_fail_mmap(true);
  auto via_read = CaptureAnalyzer::analyze_file(path, options, &no_mmap);
  ASSERT_TRUE(via_read.ok()) << via_read.error().str();
  EXPECT_GT(no_mmap.mmap_failures(), 0u) << "fallback path was not exercised";

  EXPECT_EQ(rendered(*via_mmap, names), rendered(*via_read, names))
      << "mmap and read-fallback reports diverged (threads=" << threads << ")";
  EXPECT_EQ(via_mmap->stats.packets, via_read->stats.packets);
  EXPECT_EQ(via_mmap->stats.apdus, via_read->stats.apdus);
  EXPECT_EQ(via_mmap->degradation.pcap_truncated,
            via_read->degradation.pcap_truncated);
  EXPECT_EQ(via_mmap->degradation.warnings, via_read->degradation.warnings);

  if (packets == nullptr) return;
  const std::string in_memory = report_to_json(CaptureAnalyzer::analyze(*packets, options));
  EXPECT_EQ(report_to_json(*via_mmap), in_memory)
      << "mmap report differs from the in-memory one (threads=" << threads << ")";
  EXPECT_EQ(report_to_json(*via_read), in_memory)
      << "read-fallback report differs from the in-memory one (threads=" << threads
      << ")";
}

TEST(MappingParity, CleanY1ByteIdenticalAcrossPathsAndThreads) {
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(120.0));
  std::string path = temp_pcap("y1");
  write_packets(capture.packets, path);
  NameMap names = name_map(capture.topology);
  expect_parity(path, names, 1, &capture.packets);
  expect_parity(path, names, 8, &capture.packets);
  std::remove(path.c_str());
}

TEST(MappingParity, CleanY2ByteIdenticalAcrossPathsAndThreads) {
  auto capture = sim::generate_capture(sim::CaptureConfig::y2(120.0));
  std::string path = temp_pcap("y2");
  write_packets(capture.packets, path);
  NameMap names = name_map(capture.topology);
  expect_parity(path, names, 1, &capture.packets);
  expect_parity(path, names, 8, &capture.packets);
  std::remove(path.c_str());
}

TEST(MappingParity, FaultInjectedCaptureStaysIdentical) {
  // Damaged inputs are where the two byte sources could plausibly drift
  // (short frames, garbage mid-file): corrupt 2% of packets every way the
  // fault injector knows, then require parity on the damaged file too.
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(120.0));
  auto faulted =
      faultinject::apply_faults(capture.packets, faultinject::FaultConfig::uniform(0.02));
  ASSERT_GT(faulted.log.total(), 0u);
  std::string path = temp_pcap("faulted");
  write_packets(faulted.packets, path);
  NameMap names = name_map(capture.topology);
  expect_parity(path, names, 1, &faulted.packets);
  expect_parity(path, names, 8, &faulted.packets);
  std::remove(path.c_str());
}

TEST(MappingParity, TruncatedTailReportedOnBothPaths) {
  // A capture cut mid-record (crashed tcpdump): the cursor must surface
  // the truncation warning — identically — whether the bytes came from a
  // mapping or the read fallback.
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(60.0));
  std::string path = temp_pcap("truncated");
  write_packets(capture.packets, path);

  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 100u);
  bytes.resize(bytes.size() - 7);  // mid-record: not a header boundary
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  NameMap names = name_map(capture.topology);
  CaptureAnalyzer::Options options;
  auto report = CaptureAnalyzer::analyze_file(path, options, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->degradation.pcap_truncated);
  ASSERT_FALSE(report->degradation.warnings.empty());
  EXPECT_NE(report->degradation.warnings.front().find("cut short"),
            std::string::npos);

  expect_parity(path, names, 1);
  expect_parity(path, names, 8);
  std::remove(path.c_str());
}

TEST(MappingParity, MappingActuallyMapsOnRealKernel) {
  // Guard against the fallback silently becoming the only path: on a real
  // file the mapping must be a true mmap.
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(30.0));
  std::string path = temp_pcap("mapped");
  write_packets(capture.packets, path);
  auto mapping = net::PcapMapping::open(path, nullptr);
  ASSERT_TRUE(mapping.ok());
  EXPECT_TRUE(mapping->mapped());
  EXPECT_GT(mapping->bytes().size(), 24u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uncharted::core
