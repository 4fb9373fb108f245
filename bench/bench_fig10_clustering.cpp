// E5/E13 — Fig 10 + Fig 11: session clustering, model selection, outliers —
// plus the feature-selection ablation (10 candidate features vs the paper's
// silhouette-selected 5).
#include "bench/common.hpp"

using namespace uncharted;

int main() {
  bench::print_header("E5/E13: Session clustering", "Fig 10, Fig 11, Hypothesis 4");

  auto y1 = bench::y1_capture();
  core::NameMap names = core::name_map(y1.topology);
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(y1.packets));

  // Feature ranking (the paper's silhouette-based selection).
  auto sessions = analysis::extract_session_features(ds);
  std::printf("sessions (directed endpoint pairs with APDUs): %zu\n\n", sessions.size());
  auto ranks = analysis::rank_features_by_silhouette(sessions);
  TextTable rank_table("Per-feature silhouette ranking (k=5)");
  rank_table.header({"feature", "silhouette"});
  for (const auto& r : ranks) {
    rank_table.row({analysis::feature_name(r.feature), format_double(r.silhouette, 3)});
  }
  std::printf("%s\n", rank_table.render().c_str());

  auto clustering = analysis::cluster_sessions(ds, 5);

  TextTable sweep("Model selection sweep (elbow / explained variance / silhouette)");
  sweep.header({"k", "SSE", "explained", "silhouette"});
  for (const auto& e : clustering.k_sweep) {
    sweep.row({std::to_string(e.k), format_double(e.sse, 1),
               format_percent(e.explained, 1), format_double(e.silhouette, 3)});
  }
  std::printf("%s", sweep.render().c_str());
  std::printf("elbow suggests k = %d (paper: 5)\n\n", analysis::elbow_k(clustering.k_sweep));

  TextTable clusters("Fig 11: cluster profiles (K-means++, k=5)");
  clusters.header({"cluster", "sessions", "share", "mean dt", "%I", "%S", "%U",
                   "interpretation"});
  for (const auto& p : clustering.profiles) {
    clusters.row({std::to_string(p.cluster), std::to_string(p.size),
                  format_percent(static_cast<double>(p.size) /
                                     static_cast<double>(clustering.sessions.size()), 1),
                  format_duration(p.mean_inter_arrival), format_percent(p.pct_i, 0),
                  format_percent(p.pct_s, 0), format_percent(p.pct_u, 0),
                  p.interpretation});
  }
  std::printf("%s\n", clusters.render().c_str());

  std::printf("Fig 10: first PCA-projected points per cluster (pc1, pc2)\n");
  for (int c = 0; c < clustering.chosen_k; ++c) {
    int shown = 0;
    std::printf("  cluster %d:", c);
    for (std::size_t i = 0; i < clustering.sessions.size() && shown < 4; ++i) {
      if (clustering.clustering.assignment[i] != c) continue;
      std::printf(" (%.2f, %.2f)", clustering.projection.projected[i][0],
                  clustering.projection.projected[i][1]);
      ++shown;
    }
    std::printf("\n");
  }
  std::printf("PCA variance explained by 2 components: %s\n\n",
              format_percent(clustering.projection.explained_by(2), 1).c_str());

  std::printf("Outlier cluster sessions (paper: C2->O30 and C4<->O22):\n");
  for (const auto* s : clustering.outlier_sessions) {
    std::printf("  %s -> %s  (dt=%s, n=%d)\n", core::name_of(names, s->src).c_str(),
                core::name_of(names, s->dst).c_str(),
                format_duration(s->values[analysis::kFeatMeanInterArrival]).c_str(),
                static_cast<int>(s->values[analysis::kFeatPacketCount]));
  }

  // Ablation: clustering on all 10 features vs the selected 5.
  analysis::Matrix all10, sel5;
  for (const auto& s : sessions) {
    all10.push_back(s.values);
    std::vector<double> row;
    for (auto f : analysis::paper_feature_selection()) row.push_back(s.values[f]);
    sel5.push_back(std::move(row));
  }
  auto z10 = analysis::standardize(all10);
  auto z5 = analysis::standardize(sel5);
  auto k10 = analysis::kmeans(z10, 5);
  auto k5 = analysis::kmeans(z5, 5);
  std::printf("\nAblation: feature selection effect on clustering quality\n");
  std::printf("  all 10 features: silhouette = %.3f\n",
              analysis::silhouette_score(z10, k10.assignment, 5));
  std::printf("  selected 5     : silhouette = %.3f (paper picked these by "
              "per-feature silhouette)\n",
              analysis::silhouette_score(z5, k5.assignment, 5));
  return 0;
}
