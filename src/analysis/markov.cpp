#include "analysis/markov.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string_view>

#include "exec/pool.hpp"

namespace uncharted::analysis {

namespace {

/// Counts one transition into `out` (the Table 4 alphabet is small, so a
/// node's successor list stays short enough to scan).
void count_transition(MarkovChain::Successors& out, std::uint32_t next) {
  auto edge = std::find_if(out.begin(), out.end(),
                           [next](const auto& e) { return e.first == next; });
  if (edge == out.end()) {
    out.emplace_back(next, 1);
  } else {
    ++edge->second;
  }
}

}  // namespace

MarkovChain MarkovChain::from_tokens(const std::vector<std::string>& tokens) {
  // Intern the tokens to small ids and count transitions per id.
  std::map<std::string_view, std::uint32_t> ids;
  std::vector<std::string_view> names;
  std::vector<Successors> successors;
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto [it, fresh] = ids.try_emplace(tokens[i], static_cast<std::uint32_t>(names.size()));
    if (fresh) {
      names.push_back(tokens[i]);
      successors.emplace_back();
    }
    const std::uint32_t id = it->second;
    if (i > 0) count_transition(successors[prev], id);
    prev = id;
  }
  std::vector<std::uint32_t> nodes(names.size());
  for (std::uint32_t node = 0; node < nodes.size(); ++node) nodes[node] = node;
  return from_counts(names, nodes, successors);
}

MarkovChain MarkovChain::from_counts(std::span<const std::string_view> names,
                                     std::span<const std::uint32_t> nodes,
                                     std::span<const Successors> successors) {
  MarkovChain chain;
  for (std::uint32_t node : nodes) {
    const std::string name(names[node]);
    auto& row = chain.counts_[name];
    if (node >= successors.size()) continue;
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

void BigramModel::add_chain(const MarkovChain& chain, const std::string& first,
                            const std::string& last) {
  if (chain.node_count() == 0) return;
  ++counts_[kStart][first];
  ++totals_[kStart];
  for (const auto& [node, successors] : chain.counts()) {
    for (const auto& [next, count] : successors) {
      counts_[node][next] += count;
      totals_[node] += count;
    }
  }
  ++counts_[last][kEnd];
  ++totals_[last];
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

bool BigramModel::contains_unseen_transition(const MarkovChain& chain,
                                             const std::string& first,
                                             const std::string& last) const {
  if (chain.node_count() == 0) return false;
  if (probability(kStart, first) == 0.0) return true;
  for (const auto& [node, successors] : chain.counts()) {
    for (const auto& [next, count] : successors) {
      if (probability(node, next) == 0.0) return true;
    }
  }
  return probability(last, kEnd) == 0.0;
}

std::string chain_cluster_name(ChainCluster c) {
  switch (c) {
    case ChainCluster::kPoint11: return "point(1,1)";
    case ChainCluster::kSquare: return "square";
    case ChainCluster::kEllipse: return "ellipse";
  }
  return "?";
}

std::uint32_t ChainAccumulator::token_id(const iec104::ParsedApdu& apdu) {
  // Token code: an I-format typeID is 0..255, then S, and the U functions
  // by their control bit (an unknown function is "U?"). Equal codes, equal
  // tokens, and the reverse.
  std::size_t code = 0;
  switch (apdu.format) {
    case iec104::ApduFormat::kI:
      code = static_cast<std::uint8_t>(apdu.type);
      break;
    case iec104::ApduFormat::kS: code = 257; break;
    case iec104::ApduFormat::kU: {
      const auto bits = static_cast<unsigned>(apdu.u_function);
      const bool known = bits >= 0x04 && bits <= 0x80 && (bits & (bits - 1)) == 0;
      code = known ? 258 + static_cast<std::size_t>(std::countr_zero(bits)) : 266;
      break;
    }
  }
  if (code >= id_of_code_.size()) id_of_code_.resize(code + 1, -1);
  if (id_of_code_[code] < 0) {
    id_of_code_[code] = static_cast<std::int32_t>(names_.size());
    names_.push_back(apdu.token());
  }
  return static_cast<std::uint32_t>(id_of_code_[code]);
}

void ChainAccumulator::add(const ApduRecord& rec, std::uint32_t flow) {
  Connection* c = flow_slot(by_flow_, flow, [&] {
    return &connections_[EndpointPair::of(rec.flow.src_ip, rec.flow.dst_ip)];
  });
  const auto& apdu = rec.apdu;
  const std::uint32_t id = token_id(apdu);
  if (apdu.is_i() && apdu.type == iec104::TypeId::C_IC_NA_1) c->has_i100 = true;
  if (!c->any) {
    c->any = true;
    c->first = id;
  } else {
    if (c->last >= c->successors.size()) c->successors.resize(c->last + 1);
    count_transition(c->successors[c->last], id);
  }
  c->last = id;
}

std::vector<ConnectionChain> ChainAccumulator::close(exec::Pool* pool) const {
  const std::vector<std::string_view> names(names_.begin(), names_.end());
  std::vector<const std::pair<const EndpointPair, Connection>*> items;
  items.reserve(connections_.size());
  for (const auto& entry : connections_) items.push_back(&entry);

  std::vector<ConnectionChain> out(items.size());
  exec::parallel_for(pool, items.size(), 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [pair, conn] = *items[i];
      std::vector<std::uint32_t> nodes = {conn.first};
      for (const auto& edges : conn.successors) {
        for (const auto& [next, count] : edges) nodes.push_back(next);
      }
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      ConnectionChain cc;
      cc.pair = pair;
      cc.chain = MarkovChain::from_counts(names, nodes, conn.successors);
      cc.first_token = names_[conn.first];
      cc.last_token = names_[conn.last];
      cc.has_i100 = conn.has_i100;
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

std::vector<ConnectionChain> build_connection_chains(const CaptureDataset& dataset,
                                                     exec::Pool* pool) {
  ChainAccumulator acc;
  feed(dataset.records(), acc);
  return acc.close(pool);
}

}  // namespace uncharted::analysis
