// Include-DAG enforcement for unchartedlint.
//
// src/ modules are ranked; a module may only include headers from itself or
// from strictly lower-ranked modules, and the file-level include graph must
// be acyclic. The ranks codify the dependency structure the tree already
// has (see DESIGN.md §11):
//
//   rank 0  util, exec          leaf infrastructure, no project deps
//   rank 1  health, net         supervision registry; frames/flows/pcap
//   rank 2  faultinject, iec104, iccp, synchro, power
//   rank 3  netd                live ingest reactor and server
//   rank 4  analysis, sim
//   rank 5  core                batch/streaming orchestration on top
//
// Every src/ module must have a rank (layering-unranked). Only quoted
// project includes whose first path segment is a ranked module
// participate; system includes and unknown prefixes are ignored.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rules.hpp"
#include "token.hpp"

namespace uncharted::lint {

/// Rank of a src/ module, or nullopt if the name is not a ranked module.
std::optional<int> module_rank(const std::string& module);

class IncludeGraph {
 public:
  /// Records the quoted project includes of a src/ file. Files outside
  /// src/ (tests, bench, examples, tools) are consumers of everything and
  /// are not constrained.
  void add_file(const FileContext& ctx, const std::vector<Token>& tokens);

  /// Emits layering-unranked findings for src/ files of a module with no
  /// rank, layering-order findings for rank violations and layering-cycle
  /// findings for include cycles.
  void check(std::vector<Finding>& out) const;

 private:
  struct Edge {
    std::string to;       ///< src-relative include path, e.g. "util/bytes.hpp"
    int line = 0;
    std::string file;     ///< root-relative path of the including file
    std::string module;   ///< module of the including file
  };

  /// Keyed by src-relative path of the including file; edge order is the
  /// include order within the file, key order is lexicographic — both
  /// deterministic so findings are stable across runs.
  std::map<std::string, std::vector<Edge>> adj_;
  /// Root-relative path -> module, for src/ files whose module has no rank.
  std::map<std::string, std::string> unranked_;
};

}  // namespace uncharted::lint
