#include "core/export.hpp"

#include <cstdio>

#include "util/strings.hpp"

namespace uncharted::core {

namespace {
/// DOT identifiers: quote and escape token names like I_36.
std::string dot_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}
}  // namespace

std::string markov_to_dot(const analysis::MarkovChain& chain, const std::string& title) {
  std::string out = "digraph markov {\n";
  out += "  rankdir=LR;\n  node [shape=circle, fontsize=11];\n";
  if (!title.empty()) {
    out += "  label=" + dot_quote(title) + ";\n  labelloc=t;\n";
  }
  for (const auto& [node, successors] : chain.counts()) {
    out += "  " + dot_quote(node) + ";\n";
    for (const auto& [next, count] : successors) {
      out += "  " + dot_quote(node) + " -> " + dot_quote(next) + " [label=\"" +
             format_double(chain.probability(node, next), 2) + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

std::string clusters_to_csv(const analysis::SessionClustering& clustering) {
  std::string out = "pc1,pc2,cluster,src,dst\n";
  for (std::size_t i = 0; i < clustering.sessions.size(); ++i) {
    const auto& proj = clustering.projection.projected[i];
    out += format_double(proj[0], 6) + "," + format_double(proj.size() > 1 ? proj[1] : 0.0, 6) +
           "," + std::to_string(clustering.clustering.assignment[i]) + "," +
           clustering.sessions[i].src.str() + "," + clustering.sessions[i].dst.str() +
           "\n";
  }
  return out;
}

std::string histogram_to_csv(const LogHistogram& hist) {
  std::string out = "bin_low,bin_high,count\n";
  for (std::size_t b = 0; b < hist.bin_count(); ++b) {
    out += format_double(hist.edge(b), 9) + "," + format_double(hist.edge(b + 1), 9) +
           "," + std::to_string(hist.count_at(b)) + "\n";
  }
  return out;
}

namespace {

/// JSON number for a double: shortest round-trippable-enough form, fixed
/// at "%.9g" so the byte sequence is identical across runs and platforms
/// computing the same value.
std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::string report_to_json(const AnalysisReport& report) {
  std::string out = "{";

  out += "\"stats\":{";
  const char* sep = "";
  for (const auto& f : analysis::DatasetStats::fields()) {
    out += sep;
    out += json_str(std::string(f.name)) + ":" + std::to_string(report.stats.*f.member);
    sep = ",";
  }
  out += "}";

  const auto& fs = report.flows.summary;
  out += ",\"flows\":{";
  out += "\"total\":" + std::to_string(fs.total);
  out += ",\"short_lived\":" + std::to_string(fs.short_lived);
  out += ",\"long_lived\":" + std::to_string(fs.long_lived);
  out += ",\"short_under_1s\":" + std::to_string(fs.short_under_1s);
  out += ",\"short_over_1s\":" + std::to_string(fs.short_over_1s);
  out += "}";

  out += ",\"compliance\":[";
  bool first = true;
  for (const auto& [ip, entry] : report.compliance) {
    if (!first) out += ",";
    first = false;
    out += "{\"station\":" + json_str(ip.str());
    out += ",\"i_apdus\":" + std::to_string(entry.i_apdus);
    out += ",\"non_compliant\":" + std::to_string(entry.non_compliant);
    out += ",\"profile\":" + json_str(entry.profile.str()) + "}";
  }
  out += "]";

  out += ",\"clustering\":{";
  out += "\"chosen_k\":" + std::to_string(report.clustering.chosen_k);
  out += ",\"sessions\":" + std::to_string(report.clustering.sessions.size());
  out += ",\"profiles\":[";
  first = true;
  for (const auto& p : report.clustering.profiles) {
    if (!first) out += ",";
    first = false;
    out += "{\"cluster\":" + std::to_string(p.cluster);
    out += ",\"size\":" + std::to_string(p.size);
    out += ",\"mean_inter_arrival\":" + json_num(p.mean_inter_arrival);
    out += ",\"mean_packets\":" + json_num(p.mean_packets);
    out += ",\"pct_i\":" + json_num(p.pct_i);
    out += ",\"pct_s\":" + json_num(p.pct_s);
    out += ",\"pct_u\":" + json_num(p.pct_u);
    out += ",\"interpretation\":" + json_str(p.interpretation) + "}";
  }
  out += "]}";

  out += ",\"chains\":[";
  first = true;
  for (const auto& c : report.chains) {
    if (!first) out += ",";
    first = false;
    out += "{\"a\":" + json_str(c.pair.a.str());
    out += ",\"b\":" + json_str(c.pair.b.str());
    out += ",\"nodes\":" + std::to_string(c.nodes);
    out += ",\"edges\":" + std::to_string(c.edges);
    out += ",\"has_i100\":" + std::string(c.has_i100 ? "true" : "false");
    out += ",\"cluster\":" + json_str(analysis::chain_cluster_name(c.cluster)) + "}";
  }
  out += "]";

  out += ",\"station_types\":[";
  first = true;
  for (const auto& sc : report.station_types) {
    if (!first) out += ",";
    first = false;
    out += "{\"station\":" + json_str(sc.station.str());
    out += ",\"type\":" + std::to_string(static_cast<int>(sc.type)) + "}";
  }
  out += "]";

  out += ",\"typeids\":{";
  out += "\"total\":" + std::to_string(report.typeids.total);
  out += ",\"counts\":{";
  first = true;
  for (const auto& [type, count] : report.typeids.counts) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::to_string(static_cast<int>(type)) + "\":" + std::to_string(count);
  }
  out += "}}";

  const auto& sa = report.sequence_audit;
  out += ",\"sequence_audit\":{";
  out += "\"total_gaps\":" + std::to_string(sa.total_gaps);
  out += ",\"total_duplicates\":" + std::to_string(sa.total_duplicates);
  out += ",\"total_ack_violations\":" + std::to_string(sa.total_ack_violations);
  out += "}";

  const auto& conf = report.conformance;
  out += ",\"conformance\":{";
  out += "\"clean\":" + std::to_string(conf.clean_connections);
  out += ",\"legacy\":" + std::to_string(conf.legacy_connections);
  out += ",\"suspect\":" + std::to_string(conf.suspect_connections);
  out += ",\"hostile\":" + std::to_string(conf.hostile_connections);
  out += ",\"hostile_events\":" + std::to_string(conf.hostile_events);
  out += ",\"entries\":[";
  first = true;
  for (const auto& entry : conf.entries) {
    if (!first) out += ",";
    first = false;
    out += "{\"a\":" + json_str(entry.pair.a.str());
    out += ",\"b\":" + json_str(entry.pair.b.str());
    out += ",\"verdict\":" + json_str(iec104::verdict_name(entry.verdict)) + "}";
  }
  out += "]}";

  out += ",\"bandwidth\":{";
  out += "\"total_bytes\":{";
  first = true;
  for (const auto& [proto, bytes] : report.bandwidth.total_bytes) {
    if (!first) out += ",";
    first = false;
    out += json_str(analysis::tap_protocol_name(proto)) + ":" + std::to_string(bytes);
  }
  out += "},\"total_packets\":{";
  first = true;
  for (const auto& [proto, packets] : report.bandwidth.total_packets) {
    if (!first) out += ",";
    first = false;
    out += json_str(analysis::tap_protocol_name(proto)) + ":" + std::to_string(packets);
  }
  out += "},\"iec104_interarrival_mean_s\":" +
         json_num(report.bandwidth.iec104_interarrival_s.mean());
  out += "}";

  const auto& d = report.degradation;
  out += ",\"degradation\":{";
  out += "\"degraded\":" + std::string(d.degraded() ? "true" : "false");
  out += ",\"undecodable_frames\":" + std::to_string(d.counters.undecodable_frames);
  out += ",\"parser_resyncs\":" + std::to_string(d.counters.parser_resyncs);
  out += ",\"reassembly_gaps\":" + std::to_string(d.counters.reassembly_gaps);
  out += ",\"quarantined_connections\":" +
         std::to_string(d.counters.quarantined_connections);
  out += ",\"pcap_truncated\":" + std::string(d.pcap_truncated ? "true" : "false");
  out += ",\"warnings\":[";
  first = true;
  for (const auto& w : d.warnings) {
    if (!first) out += ",";
    first = false;
    out += json_str(w);
  }
  out += "]}";

  out += "}";
  return out;
}

Status write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Err("open-failed", path);
  std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  bool close_ok = std::fclose(f) == 0;
  if (written != content.size() || !close_ok) return Err("write-failed", path);
  return Status::Ok();
}

}  // namespace uncharted::core
