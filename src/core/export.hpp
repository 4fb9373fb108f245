// Export utilities: Graphviz DOT for Markov chains (the paper's Figs
// 12-16 are exactly these graphs) and CSV for time series, cluster
// scatters and histograms, so the paper's plots can be redrawn from bench
// output with any plotting tool.
#pragma once

#include <map>
#include <string>

#include "analysis/markov.hpp"
#include "analysis/physical.hpp"
#include "analysis/sessions.hpp"
#include "core/analyzer.hpp"
#include "util/expected.hpp"
#include "util/stats.hpp"

namespace uncharted::core {

/// Machine-readable JSON of the full §6 report. Deterministic: map-ordered
/// keys, doubles through "%.9g", and the wall-clock stage timings are
/// deliberately excluded — two runs over the same capture produce
/// byte-identical JSON at any thread count.
std::string report_to_json(const AnalysisReport& report);

/// Renders a Markov chain as a Graphviz digraph with probability-labelled
/// edges, e.g. for `dot -Tpng`.
std::string markov_to_dot(const analysis::MarkovChain& chain,
                          const std::string& title = "");

/// CSV of the Fig 10 scatter: "pc1,pc2,cluster,src,dst".
std::string clusters_to_csv(const analysis::SessionClustering& clustering);

/// CSV of a log histogram: "bin_low,bin_high,count".
std::string histogram_to_csv(const LogHistogram& hist);

/// Writes a string to a file.
Status write_text_file(const std::string& path, const std::string& content);

}  // namespace uncharted::core
