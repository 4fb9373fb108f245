// Session feature extraction and clustering (§6.3, Figs 10-11).
//
// A session is all APDU-bearing packets sent in one direction between two
// endpoints. Ten candidate statistical features are computed; per-feature
// silhouette ranking recovers the paper's selection of five (mean
// inter-arrival time, packet count, %I, %S, %U).
#pragma once

#include <bitset>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataset.hpp"
#include "analysis/kmeans.hpp"
#include "analysis/pca.hpp"

namespace uncharted::analysis {

/// Candidate feature indices into SessionFeatures::values.
enum SessionFeature : std::size_t {
  kFeatDirection = 0,    ///< 1 when sent by the control server side
  kFeatMeanInterArrival, ///< seconds
  kFeatStdInterArrival,
  kFeatTotalBytes,       ///< APDU wire bytes
  kFeatPacketCount,
  kFeatMeanApduSize,
  kFeatPercentI,
  kFeatPercentS,
  kFeatPercentU,
  kFeatDistinctIoas,
  kFeatureCount,
};

std::string feature_name(std::size_t index);

/// One directed session with its feature vector.
struct SessionFeatures {
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  std::vector<double> values;  ///< kFeatureCount entries
};

/// Folds records into per-session feature sums. Each session sees its
/// records in canonical order, so every floating-point sum runs in the
/// same order as a per-session loop over the dataset would.
class SessionAccumulator {
 public:
  void add(const ApduRecord& rec, std::uint32_t flow);
  /// One feature vector per session, in (src, dst) order.
  std::vector<SessionFeatures> close() const;

 private:
  struct Session {
    bool from_server = false;
    double bytes = 0.0;
    std::size_t count = 0, count_i = 0, count_s = 0, count_u = 0;
    /// Distinct IOAs as a bitmap in blocks of 4096 (an IOA is 24-bit),
    /// with the block of the last IOA at hand.
    std::map<std::uint32_t, std::bitset<4096>> ioa_blocks;
    std::bitset<4096>* block = nullptr;
    std::uint32_t block_index = 0;
    std::size_t distinct_ioas = 0;
    double sum_dt = 0.0, sum_dt2 = 0.0;
    std::size_t dt_n = 0;
    Timestamp prev = 0;
  };
  std::map<std::pair<net::Ipv4Addr, net::Ipv4Addr>, Session> sessions_;
  std::vector<Session*> by_flow_;
};

/// Extracts all sessions with >= 1 APDU, in (src, dst) order. `pool` is
/// unused: one pass over the records computes every session.
std::vector<SessionFeatures> extract_session_features(const CaptureDataset& dataset,
                                                      exec::Pool* pool = nullptr);

/// The paper's K for session clustering (§6.3, Fig 10): chosen offline
/// from the elbow of the k sweep, and fixed.
constexpr int kSessionClusters = 5;

/// Mean silhouette of clustering on a single feature (kSessionClusters
/// clusters), used to rank candidate features as the paper does.
struct FeatureRank {
  std::size_t feature;
  double silhouette;
};
std::vector<FeatureRank> rank_features_by_silhouette(
    const std::vector<SessionFeatures>& sessions, exec::Pool* pool = nullptr);

/// The paper's selected five features.
std::vector<std::size_t> paper_feature_selection();

/// Full clustering result for Figs 10-11.
struct SessionClustering {
  std::vector<SessionFeatures> sessions;
  std::vector<std::size_t> selected_features;
  std::vector<KSweepEntry> k_sweep;      ///< k = 2..8 diagnostics
  int chosen_k = 0;                      ///< the k clustered with
  KMeansResult clustering;               ///< on the chosen k
  PcaResult projection;                  ///< 2-D PCA of the selected features

  struct ClusterProfile {
    int cluster = 0;
    std::size_t size = 0;
    double mean_inter_arrival = 0.0;
    double mean_packets = 0.0;
    double pct_i = 0.0, pct_s = 0.0, pct_u = 0.0;
    std::string interpretation;  ///< heuristic label matching Fig 11
  };
  std::vector<ClusterProfile> profiles;

  /// Sessions in the cluster with the largest mean inter-arrival time
  /// (the paper's outlier "cluster 0": C2->O30 and C4<->O22).
  std::vector<const SessionFeatures*> outlier_sessions;
};

/// Runs the paper's session-clustering pipeline into `k` clusters (at most
/// one per session). The k sweep is report output only: elbow_k reads the
/// choice off it. `pool` parallelizes feature extraction, the k sweep, the
/// final k-means and the PCA — all with thread-count-invariant results.
SessionClustering cluster_sessions(const CaptureDataset& dataset,
                                   int k = kSessionClusters,
                                   exec::Pool* pool = nullptr);
/// The same pipeline over already-extracted session features.
SessionClustering cluster_sessions(std::vector<SessionFeatures> sessions, int k,
                                   exec::Pool* pool);

}  // namespace uncharted::analysis
