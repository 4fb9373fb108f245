// Ablation studies for the design choices DESIGN.md calls out:
//   A1. flow-lifetime definition: SYN+FIN/RST matching (the paper's) vs a
//       naive duration threshold;
//   A2. per-packet vs reassembled APDU parsing (the §6.3.1 retransmission
//       effect on Markov tokens);
//   A3. strict vs tolerant parsing coverage.
#include "analysis/flows.hpp"
#include "analysis/markov.hpp"
#include "bench/common.hpp"

using namespace uncharted;

int main() {
  bench::print_header("Ablations", "DESIGN.md section 5");

  auto y1 = bench::y1_capture();
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(y1.packets));

  // --- A1: flow lifetime definition --------------------------------------
  std::printf("A1: flow lifetime definition\n");
  const auto flows = ds.flow_table().flows();
  std::size_t paper_short = 0, naive_short = 0, disagree = 0;
  for (const auto& f : flows) {
    bool paper = f.lifetime() == net::FlowLifetime::kShortLived;
    bool naive = f.duration_seconds() < 60.0;  // "short = brief" strawman
    if (paper) ++paper_short;
    if (naive) ++naive_short;
    if (paper != naive) ++disagree;
  }
  std::printf("  flows: %zu\n", flows.size());
  std::printf("  short-lived (paper: SYN+FIN/RST in capture): %zu\n", paper_short);
  std::printf("  short-lived (naive: duration < 60 s):        %zu\n", naive_short);
  std::printf("  disagreements: %zu  -- the naive rule classifies every silently\n"
              "  ignored SYN (no reply, ~3 s on the wire) as short-lived, hiding the\n"
              "  paper's long-lived inflation signal entirely\n\n",
              disagree);

  // --- A2: per-packet vs reassembled parsing ------------------------------
  std::printf("A2: per-packet vs reassembled APDU extraction\n");
  analysis::CaptureDataset::Options reasm_opts;
  reasm_opts.mode = analysis::ParseMode::kReassembled;
  auto ds_reasm = analysis::CaptureDataset::build(net::as_frame_views(y1.packets), reasm_opts);
  std::printf("  per-packet APDUs:  %s\n", format_count(ds.stats().apdus).c_str());
  std::printf("  reassembled APDUs: %s (TCP retransmissions deduplicated: %s)\n",
              format_count(ds_reasm.stats().apdus).c_str(),
              format_count(ds_reasm.stats().tcp_retransmissions).c_str());

  // Count connections whose chain contains a suspicious self-loop on U16 or
  // U32 under each mode: the paper initially read these as anomalies.
  auto count_selfloops = [](const analysis::CaptureDataset& d) {
    std::size_t n = 0;
    for (const auto& c : analysis::build_connection_chains(d)) {
      // The genuine reset-backup connections are U16-only chains; exclude
      // them to isolate the retransmission artifact on healthy links.
      if (c.nodes == 1) continue;
      if (c.chain.has_self_loop("U16") || c.chain.has_self_loop("U32")) ++n;
    }
    return n;
  };
  std::size_t loops_pp = count_selfloops(ds);
  std::size_t loops_re = count_selfloops(ds_reasm);
  std::printf("  healthy connections with repeated-U tokens: per-packet %zu, "
              "reassembled %zu\n",
              loops_pp, loops_re);
  std::printf("  -- repeated U16/U32 on healthy links are TCP retransmissions, not\n"
              "  endpoint behaviour (the paper's §6.3.1 conclusion)\n\n");

  // --- A3: strict vs tolerant parsing -------------------------------------
  std::printf("A3: strict vs tolerant parsing coverage\n");
  analysis::CaptureDataset::Options strict_opts;
  strict_opts.parser_mode = iec104::ApduStreamParser::Mode::kStrict;
  auto ds_strict = analysis::CaptureDataset::build(net::as_frame_views(y1.packets), strict_opts);
  std::printf("  strict:   %s APDUs, %s failures\n",
              format_count(ds_strict.stats().apdus).c_str(),
              format_count(ds_strict.stats().apdu_failures).c_str());
  std::printf("  tolerant: %s APDUs, %s failures (%s legacy recovered)\n",
              format_count(ds.stats().apdus).c_str(),
              format_count(ds.stats().apdu_failures).c_str(),
              format_count(ds.stats().non_compliant_apdus).c_str());
  double lost = 1.0 - static_cast<double>(ds_strict.stats().apdus) /
                          static_cast<double>(ds.stats().apdus);
  std::printf("  a strict-only pipeline silently drops %s of the fleet's I-traffic\n",
              format_percent(lost, 1).c_str());
  return 0;
}
