#include "analysis/markov.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "exec/pool.hpp"

namespace uncharted::analysis {

std::string apdu_token(const iec104::Apdu& apdu) { return apdu.token(); }

MarkovChain MarkovChain::from_tokens(const std::vector<std::string>& tokens) {
  // Intern the tokens to small ids and count transitions per id; the
  // string-keyed maps are then built once per distinct node and edge. The
  // Table 4 alphabet is small (S, six U functions, I_<typeid>), so a
  // node's successor list stays short enough to scan.
  std::map<std::string_view, std::uint32_t> ids;
  std::vector<std::string_view> names;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> successors;
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto [it, fresh] = ids.try_emplace(tokens[i], static_cast<std::uint32_t>(names.size()));
    if (fresh) {
      names.push_back(tokens[i]);
      successors.emplace_back();
    }
    const std::uint32_t id = it->second;
    if (i > 0) {
      auto& out = successors[prev];
      auto edge = std::find_if(out.begin(), out.end(),
                               [id](const auto& e) { return e.first == id; });
      if (edge == out.end()) {
        out.emplace_back(id, 1);
      } else {
        ++edge->second;
      }
    }
    prev = id;
  }

  MarkovChain chain;
  for (std::uint32_t node = 0; node < names.size(); ++node) {
    const std::string name(names[node]);
    auto& row = chain.counts_[name];
    for (const auto& [next, count] : successors[node]) {
      row.emplace(std::string(names[next]), count);
      chain.outgoing_totals_[name] += count;
    }
  }
  return chain;
}

std::size_t MarkovChain::edge_count() const {
  std::size_t edges = 0;
  for (const auto& [node, successors] : counts_) edges += successors.size();
  return edges;
}

double MarkovChain::probability(const std::string& current, const std::string& next) const {
  auto it = counts_.find(current);
  if (it == counts_.end()) return 0.0;
  auto jt = it->second.find(next);
  if (jt == it->second.end()) return 0.0;
  auto tot = outgoing_totals_.find(current);
  if (tot == outgoing_totals_.end() || tot->second == 0) return 0.0;
  return static_cast<double>(jt->second) / static_cast<double>(tot->second);
}

bool MarkovChain::has_self_loop(const std::string& token) const {
  auto it = counts_.find(token);
  return it != counts_.end() && it->second.count(token) > 0;
}

std::string MarkovChain::str() const {
  std::string out;
  for (const auto& [node, successors] : counts_) {
    for (const auto& [next, count] : successors) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", probability(node, next));
      out += node + " -> " + next + " : " + buf + "\n";
    }
  }
  return out;
}

void BigramModel::add_sequence(const std::vector<std::string>& tokens) {
  if (tokens.empty()) return;
  ++counts_[kStart][tokens.front()];
  ++totals_[kStart];
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    ++counts_[tokens[i]][tokens[i + 1]];
    ++totals_[tokens[i]];
  }
  ++counts_[tokens.back()][kEnd];
  ++totals_[tokens.back()];
}

double BigramModel::probability(const std::string& current, const std::string& next) const {
  auto it = counts_.find(current);
  if (it == counts_.end()) return 0.0;
  auto jt = it->second.find(next);
  if (jt == it->second.end()) return 0.0;
  return static_cast<double>(jt->second) / static_cast<double>(totals_.at(current));
}

double BigramModel::log2_score(const std::vector<std::string>& tokens,
                               double floor_log2) const {
  if (tokens.empty()) return 0.0;
  double total = 0.0;
  std::size_t transitions = 0;
  auto add = [&](const std::string& a, const std::string& b) {
    double p = probability(a, b);
    total += p > 0.0 ? std::log2(p) : floor_log2;
    ++transitions;
  };
  add(kStart, tokens.front());
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) add(tokens[i], tokens[i + 1]);
  add(tokens.back(), kEnd);
  return total / static_cast<double>(transitions);
}

bool BigramModel::contains_unseen_transition(const std::vector<std::string>& tokens) const {
  if (tokens.empty()) return false;
  if (probability(kStart, tokens.front()) == 0.0) return true;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (probability(tokens[i], tokens[i + 1]) == 0.0) return true;
  }
  return probability(tokens.back(), kEnd) == 0.0;
}

std::string chain_cluster_name(ChainCluster c) {
  switch (c) {
    case ChainCluster::kPoint11: return "point(1,1)";
    case ChainCluster::kSquare: return "square";
    case ChainCluster::kEllipse: return "ellipse";
  }
  return "?";
}

std::vector<ConnectionChain> build_connection_chains(const CaptureDataset& dataset,
                                                     exec::Pool* pool) {
  const auto& records = dataset.records();

  // Flatten the connection map so each chain builds into its own slot;
  // the output keeps the map's key order at any thread count.
  struct Item {
    const EndpointPair* pair;
    const std::vector<std::size_t>* indices;
  };
  std::vector<Item> items;
  items.reserve(dataset.connections().size());
  for (const auto& [pair, indices] : dataset.connections()) {
    items.push_back(Item{&pair, &indices});
  }

  std::vector<ConnectionChain> out(items.size());
  exec::parallel_for(pool, items.size(), 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ConnectionChain cc;
      cc.pair = *items[i].pair;
      const auto& indices = *items[i].indices;
      cc.tokens.reserve(indices.size());
      for (std::size_t idx : indices) {
        cc.tokens.push_back(apdu_token(records[idx].apdu.apdu));
        if (records[idx].apdu.apdu.asdu &&
            records[idx].apdu.apdu.asdu->type == iec104::TypeId::C_IC_NA_1) {
          cc.has_i100 = true;
        }
      }
      cc.chain = MarkovChain::from_tokens(cc.tokens);
      cc.nodes = cc.chain.node_count();
      cc.edges = cc.chain.edge_count();
      if (cc.nodes == 1 && cc.edges == 1) {
        cc.cluster = ChainCluster::kPoint11;
      } else if (cc.has_i100) {
        cc.cluster = ChainCluster::kEllipse;
      } else {
        cc.cluster = ChainCluster::kSquare;
      }
      out[i] = std::move(cc);
    }
  });
  return out;
}

}  // namespace uncharted::analysis
