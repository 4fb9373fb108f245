#include "analysis/sessions.hpp"

#include <algorithm>
#include <cmath>
#include <set>

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

std::vector<SessionFeatures> extract_session_features(const CaptureDataset& dataset,
                                                      exec::Pool* pool) {
  const auto& records = dataset.records();

  // Flatten the map so sessions can be processed by index; output order
  // stays the map's key order regardless of execution order.
  struct Item {
    const std::pair<net::Ipv4Addr, net::Ipv4Addr>* key;
    const std::vector<std::size_t>* indices;
  };
  std::vector<Item> items;
  items.reserve(dataset.sessions().size());
  for (const auto& [key, indices] : dataset.sessions()) {
    if (indices.empty()) continue;
    items.push_back(Item{&key, &indices});
  }

  auto featurize = [&records](const std::pair<net::Ipv4Addr, net::Ipv4Addr>& key,
                              const std::vector<std::size_t>& indices) {
    SessionFeatures sf;
    sf.src = key.first;
    sf.dst = key.second;
    sf.values.assign(kFeatureCount, 0.0);

    // Direction: the outstation owns the IEC 104 port, so a sender whose
    // flows target port 2404 is the control-server side.
    const auto& first = records[indices.front()];
    bool from_server = first.flow.dst_port == iec104::kIec104Port;
    sf.values[kFeatDirection] = from_server ? 1.0 : 0.0;

    double bytes = 0.0;
    std::size_t count_i = 0, count_s = 0, count_u = 0;
    std::set<std::uint32_t> ioas;
    double sum_dt = 0.0, sum_dt2 = 0.0;
    std::size_t dt_n = 0;
    Timestamp prev = 0;
    bool has_prev = false;  // ts 0 is a real time in relative captures

    for (std::size_t idx : indices) {
      const auto& rec = records[idx];
      bytes += static_cast<double>(rec.apdu.wire_size);
      switch (rec.apdu.apdu.format) {
        case iec104::ApduFormat::kI: ++count_i; break;
        case iec104::ApduFormat::kS: ++count_s; break;
        case iec104::ApduFormat::kU: ++count_u; break;
      }
      if (rec.apdu.apdu.asdu) {
        for (const auto& obj : rec.apdu.apdu.asdu->objects) ioas.insert(obj.ioa);
      }
      if (has_prev) {
        double dt = to_seconds(static_cast<DurationUs>(rec.ts - prev));
        sum_dt += dt;
        sum_dt2 += dt * dt;
        ++dt_n;
      }
      prev = rec.ts;
      has_prev = true;
    }

    double n = static_cast<double>(indices.size());
    double mean_dt = dt_n ? sum_dt / static_cast<double>(dt_n) : 0.0;
    double var_dt = dt_n ? std::max(0.0, sum_dt2 / static_cast<double>(dt_n) -
                                             mean_dt * mean_dt)
                         : 0.0;
    sf.values[kFeatMeanInterArrival] = mean_dt;
    sf.values[kFeatStdInterArrival] = std::sqrt(var_dt);
    sf.values[kFeatTotalBytes] = bytes;
    sf.values[kFeatPacketCount] = n;
    sf.values[kFeatMeanApduSize] = bytes / n;
    sf.values[kFeatPercentI] = static_cast<double>(count_i) / n;
    sf.values[kFeatPercentS] = static_cast<double>(count_s) / n;
    sf.values[kFeatPercentU] = static_cast<double>(count_u) / n;
    sf.values[kFeatDistinctIoas] = static_cast<double>(ioas.size());
    return sf;
  };

  std::vector<SessionFeatures> out(items.size());
  exec::parallel_for(pool, items.size(), 8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = featurize(*items[i].key, *items[i].indices);
    }
  });
  return out;
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
  SessionClustering out;
  out.sessions = extract_session_features(dataset, pool);
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
