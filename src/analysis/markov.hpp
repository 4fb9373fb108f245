// Message-sequence models (§6.3.1): APDU tokenization (Table 4), bigram
// language models with MLE probabilities (Eq. 1-2), per-connection Markov
// chains, and the Fig 13 (nodes, edges) scatter with its three clusters:
// the (1,1) point (reset-backup connections), the "square" (ordinary
// chains) and the "ellipse" (chains containing the I100 interrogation).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/dataset.hpp"

namespace uncharted::exec {
class Pool;
}  // namespace uncharted::exec

namespace uncharted::analysis {

/// First-order Markov chain over tokens with MLE transition probabilities.
class MarkovChain {
 public:
  /// Builds from a token sequence; consecutive pairs become transitions.
  static MarkovChain from_tokens(const std::vector<std::string>& tokens);

  /// (next id, count) transitions out of one interned token.
  using Successors = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  /// Builds from interned counts: the chain's nodes are `nodes` (distinct),
  /// token id t is named `names[t]`, and `successors[t]` (when t is in
  /// range) holds its transitions. The string-keyed maps are built once per node and
  /// edge.
  static MarkovChain from_counts(std::span<const std::string_view> names,
                                 std::span<const std::uint32_t> nodes,
                                 std::span<const Successors> successors);

  std::size_t node_count() const { return counts_.size(); }
  std::size_t edge_count() const;

  /// MLE P(next | current); 0 when the transition was never seen.
  double probability(const std::string& current, const std::string& next) const;

  /// Raw transition counts: counts[current][next].
  const std::map<std::string, std::map<std::string, std::uint64_t>>& counts() const {
    return counts_;
  }

  bool has_node(const std::string& token) const { return counts_.count(token) > 0; }

  /// True when the chain contains a self-loop on `token`.
  bool has_self_loop(const std::string& token) const;

  /// Multi-line "A -> B : p" rendering, probabilities in edge order.
  std::string str() const;

 private:
  // Every node has an entry (possibly with an empty successor map).
  std::map<std::string, std::map<std::string, std::uint64_t>> counts_;
  std::map<std::string, std::uint64_t> outgoing_totals_;
};

/// Bigram language model over many sequences (Eq. 1-2), with
/// log-probability scoring for whitelist-style anomaly detection.
class BigramModel {
 public:
  static constexpr const char* kStart = "<s>";
  static constexpr const char* kEnd = "</s>";

  void add_sequence(const std::vector<std::string>& tokens);
  /// add_sequence() of a sequence known only by its chain and its first
  /// and last token: the same counts, since a bigram model sees nothing
  /// else of a sequence.
  void add_chain(const MarkovChain& chain, const std::string& first,
                 const std::string& last);

  /// MLE P(next | current) including start/end pseudo-tokens.
  double probability(const std::string& current, const std::string& next) const;

  /// Average log2-probability per transition; `floor` substitutes for
  /// unseen transitions (default: treat as probability 2^-20).
  double log2_score(const std::vector<std::string>& tokens, double floor_log2 = -20.0) const;

  /// A sequence is anomalous when it contains a transition never seen in
  /// training.
  bool contains_unseen_transition(const std::vector<std::string>& tokens) const;
  /// The same test for a sequence known by its chain and end tokens.
  bool contains_unseen_transition(const MarkovChain& chain, const std::string& first,
                                  const std::string& last) const;

  std::size_t vocabulary_size() const { return counts_.size(); }

 private:
  std::map<std::string, std::map<std::string, std::uint64_t>> counts_;
  std::map<std::string, std::uint64_t> totals_;
};

/// Fig 13 cluster labels.
enum class ChainCluster {
  kPoint11,  ///< one node, one edge: repeated unanswered U16
  kSquare,   ///< ordinary chains without interrogation
  kEllipse,  ///< chains containing the I100 interrogation command
};

std::string chain_cluster_name(ChainCluster c);

/// One connection's chain summary (a Fig 13 scatter point).
struct ConnectionChain {
  EndpointPair pair;
  MarkovChain chain;
  /// First and last token of the connection's sequence: with the chain's
  /// transition counts, all a bigram model reads of it.
  std::string first_token;
  std::string last_token;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  bool has_i100 = false;
  ChainCluster cluster = ChainCluster::kSquare;
};

/// Folds records into per-connection transition counts over dense token
/// ids (tokens from both directions, canonical order).
class ChainAccumulator {
 public:
  void add(const ApduRecord& rec, std::uint32_t flow);
  /// One chain per connection, in endpoint-pair order. `pool` fans out
  /// building the chains' string maps (inline when null).
  std::vector<ConnectionChain> close(exec::Pool* pool) const;

 private:
  /// A connection's nodes are its first token and every transition's
  /// target, so the transition counts alone describe the chain.
  struct Connection {
    std::vector<MarkovChain::Successors> successors;  ///< by token id
    std::uint32_t first = 0, last = 0;
    bool any = false;
    bool has_i100 = false;
  };
  std::uint32_t token_id(const iec104::ParsedApdu& apdu);

  std::map<EndpointPair, Connection> connections_;
  std::vector<Connection*> by_flow_;
  /// Token id per token code (see token_id), -1 until first seen.
  std::vector<std::int32_t> id_of_code_;
  std::vector<std::string> names_;
};

/// Builds per-connection chains (tokens from both directions, time order),
/// output in connection-map order.
std::vector<ConnectionChain> build_connection_chains(const CaptureDataset& dataset,
                                                     exec::Pool* pool = nullptr);

}  // namespace uncharted::analysis
