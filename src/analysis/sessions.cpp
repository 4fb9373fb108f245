#include "analysis/sessions.hpp"

#include <algorithm>
#include <cmath>

#include "exec/pool.hpp"

namespace uncharted::analysis {

std::string feature_name(std::size_t index) {
  switch (index) {
    case kFeatDirection: return "direction";
    case kFeatMeanInterArrival: return "mean_interarrival";
    case kFeatStdInterArrival: return "std_interarrival";
    case kFeatTotalBytes: return "total_bytes";
    case kFeatPacketCount: return "num_packets";
    case kFeatMeanApduSize: return "mean_apdu_size";
    case kFeatPercentI: return "percent_I";
    case kFeatPercentS: return "percent_S";
    case kFeatPercentU: return "percent_U";
    case kFeatDistinctIoas: return "distinct_ioas";
  }
  return "feature_" + std::to_string(index);
}

void SessionAccumulator::add(const ApduRecord& rec, std::uint32_t flow) {
  Session* s = flow_slot(by_flow_, flow, [&] {
    auto [it, fresh] = sessions_.try_emplace({rec.flow.src_ip, rec.flow.dst_ip});
    // Direction: the outstation owns the IEC 104 port, so a sender whose
    // first flow targets port 2404 is the control-server side.
    if (fresh) it->second.from_server = rec.flow.dst_port == iec104::kIec104Port;
    return &it->second;
  });
  s->bytes += static_cast<double>(rec.apdu.wire_size);
  switch (rec.apdu.format) {
    case iec104::ApduFormat::kI: ++s->count_i; break;
    case iec104::ApduFormat::kS: ++s->count_s; break;
    case iec104::ApduFormat::kU: ++s->count_u; break;
  }
  if (rec.apdu.is_i()) {
    for (const auto& obj : rec.apdu.objects()) {
      const std::uint32_t index = obj.ioa >> 12;
      if (s->block == nullptr || s->block_index != index) {
        s->block = &s->ioa_blocks[index];
        s->block_index = index;
      }
      const std::size_t bit = obj.ioa & 4095u;
      if (!s->block->test(bit)) {
        s->block->set(bit);
        ++s->distinct_ioas;
      }
    }
  }
  if (s->count > 0) {  // ts 0 is a real time in relative captures
    double dt = to_seconds(static_cast<DurationUs>(rec.ts - s->prev));
    s->sum_dt += dt;
    s->sum_dt2 += dt * dt;
    ++s->dt_n;
  }
  s->prev = rec.ts;
  ++s->count;
}

std::vector<SessionFeatures> SessionAccumulator::close() const {
  std::vector<SessionFeatures> out;
  out.reserve(sessions_.size());
  for (const auto& [key, s] : sessions_) {
    SessionFeatures sf;
    sf.src = key.first;
    sf.dst = key.second;
    sf.values.assign(kFeatureCount, 0.0);
    double n = static_cast<double>(s.count);
    double mean_dt = s.dt_n ? s.sum_dt / static_cast<double>(s.dt_n) : 0.0;
    double var_dt = s.dt_n ? std::max(0.0, s.sum_dt2 / static_cast<double>(s.dt_n) -
                                               mean_dt * mean_dt)
                           : 0.0;
    sf.values[kFeatDirection] = s.from_server ? 1.0 : 0.0;
    sf.values[kFeatMeanInterArrival] = mean_dt;
    sf.values[kFeatStdInterArrival] = std::sqrt(var_dt);
    sf.values[kFeatTotalBytes] = s.bytes;
    sf.values[kFeatPacketCount] = n;
    sf.values[kFeatMeanApduSize] = s.bytes / n;
    sf.values[kFeatPercentI] = static_cast<double>(s.count_i) / n;
    sf.values[kFeatPercentS] = static_cast<double>(s.count_s) / n;
    sf.values[kFeatPercentU] = static_cast<double>(s.count_u) / n;
    sf.values[kFeatDistinctIoas] = static_cast<double>(s.distinct_ioas);
    out.push_back(std::move(sf));
  }
  return out;
}

std::vector<SessionFeatures> extract_session_features(const CaptureDataset& dataset,
                                                      exec::Pool* /*pool*/) {
  SessionAccumulator acc;
  feed(dataset.records(), acc);
  return acc.close();
}

std::vector<FeatureRank> rank_features_by_silhouette(
    const std::vector<SessionFeatures>& sessions, int k, exec::Pool* pool) {
  std::vector<FeatureRank> ranks;
  if (sessions.size() < static_cast<std::size_t>(k) + 1) return ranks;

  ranks.resize(kFeatureCount);
  KMeansOptions opts;
  opts.pool = pool;
  exec::TaskGroup group(pool);
  for (std::size_t f = 0; f < kFeatureCount; ++f) {
    group.run([&, f] {
      Matrix column;
      column.reserve(sessions.size());
      for (const auto& s : sessions) column.push_back({s.values[f]});
      Matrix standardized = standardize(column);
      auto result = kmeans(standardized, k, opts);
      ranks[f] = FeatureRank{f, silhouette_score(standardized, result.assignment, k)};
    });
  }
  group.wait();
  std::sort(ranks.begin(), ranks.end(),
            [](const FeatureRank& a, const FeatureRank& b) {
              return a.silhouette > b.silhouette;
            });
  return ranks;
}

std::vector<std::size_t> paper_feature_selection() {
  return {kFeatMeanInterArrival, kFeatPacketCount, kFeatPercentI, kFeatPercentS,
          kFeatPercentU};
}

SessionClustering cluster_sessions(const CaptureDataset& dataset, int force_k,
                                   exec::Pool* pool) {
  return cluster_sessions(extract_session_features(dataset), force_k, pool);
}

SessionClustering cluster_sessions(std::vector<SessionFeatures> sessions, int force_k,
                                   exec::Pool* pool) {
  SessionClustering out;
  out.sessions = std::move(sessions);
  out.selected_features = paper_feature_selection();
  if (out.sessions.size() < 8) return out;

  Matrix selected;
  selected.reserve(out.sessions.size());
  for (const auto& s : out.sessions) {
    std::vector<double> row;
    row.reserve(out.selected_features.size());
    for (std::size_t f : out.selected_features) row.push_back(s.values[f]);
    selected.push_back(std::move(row));
  }
  Matrix standardized = standardize(selected);

  KMeansOptions opts;
  opts.pool = pool;
  int k_max = static_cast<int>(std::min<std::size_t>(8, out.sessions.size() - 1));
  out.k_sweep = sweep_k(standardized, 2, k_max, opts);
  out.chosen_k = force_k > 0 ? force_k : elbow_k(out.k_sweep);
  out.chosen_k = std::min<int>(out.chosen_k, static_cast<int>(out.sessions.size()));
  out.clustering = kmeans(standardized, out.chosen_k, opts);
  out.projection = pca(standardized, 2, pool);

  // Cluster profiles with heuristic interpretations (Fig 11 semantics).
  const int k = out.chosen_k;
  out.profiles.assign(static_cast<std::size_t>(k), {});
  for (int c = 0; c < k; ++c) out.profiles[static_cast<std::size_t>(c)].cluster = c;
  for (std::size_t i = 0; i < out.sessions.size(); ++i) {
    auto& p = out.profiles[static_cast<std::size_t>(out.clustering.assignment[i])];
    const auto& v = out.sessions[i].values;
    ++p.size;
    p.mean_inter_arrival += v[kFeatMeanInterArrival];
    p.mean_packets += v[kFeatPacketCount];
    p.pct_i += v[kFeatPercentI];
    p.pct_s += v[kFeatPercentS];
    p.pct_u += v[kFeatPercentU];
  }
  double max_dt = 0.0;
  int outlier_cluster = -1;
  for (auto& p : out.profiles) {
    if (p.size == 0) continue;
    double n = static_cast<double>(p.size);
    p.mean_inter_arrival /= n;
    p.mean_packets /= n;
    p.pct_i /= n;
    p.pct_s /= n;
    p.pct_u /= n;
    if (p.mean_inter_arrival > max_dt) {
      max_dt = p.mean_inter_arrival;
      outlier_cluster = p.cluster;
    }
  }
  for (auto& p : out.profiles) {
    if (p.size == 0) {
      p.interpretation = "empty";
    } else if (p.cluster == outlier_cluster) {
      p.interpretation = "outlier: extremely long inter-arrival times";
    } else if (p.pct_s > 0.8) {
      p.interpretation = "acknowledgements (S) from control servers";
    } else if (p.pct_u > 0.8) {
      p.interpretation = "keep-alive (U) backup connections";
    } else if (p.pct_i > 0.6 && p.mean_packets > 0) {
      p.interpretation = p.mean_inter_arrival < 3.0
                             ? "bulk I-format telemetry (spontaneous-heavy)"
                             : "regular I-format telemetry";
    } else {
      p.interpretation = "mixed";
    }
  }

  if (outlier_cluster >= 0) {
    for (std::size_t i = 0; i < out.sessions.size(); ++i) {
      if (out.clustering.assignment[i] == outlier_cluster) {
        out.outlier_sessions.push_back(&out.sessions[i]);
      }
    }
  }
  return out;
}

}  // namespace uncharted::analysis
