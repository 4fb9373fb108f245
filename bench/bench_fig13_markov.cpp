// E6/E7 — Figs 12-16: message-sequence Markov chains.
//
// Prints the canonical example chains (Fig 12 primary/secondary, Fig 14 the
// abnormal (1,1) pattern, Fig 15/16 switchover with I100), the full
// (nodes, edges) scatter of Fig 13 with its three clusters, and the
// membership of the (1,1) point against the paper's named connection list.
#include <algorithm>

#include "analysis/markov.hpp"
#include "bench/common.hpp"

using namespace uncharted;

int main() {
  bench::print_header("E6/E7: Markov chains of APDU sequences",
                      "Figs 12-16, Tables 4-5, Hypothesis 4");

  auto y1 = bench::y1_capture();
  core::NameMap names = core::name_map(y1.topology);
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(y1.packets));
  auto chains = analysis::build_connection_chains(ds);

  auto name_pair = [&](const analysis::EndpointPair& p) {
    return core::name_of(names, p.a) + "-" + core::name_of(names, p.b);
  };

  // Fig 13 scatter.
  std::printf("Fig 13: chain sizes (nodes, edges) per connection\n");
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> scatter;
  std::size_t p11 = 0, square = 0, ellipse = 0;
  for (const auto& c : chains) {
    ++scatter[{c.nodes, c.edges}];
    switch (c.cluster) {
      case analysis::ChainCluster::kPoint11: ++p11; break;
      case analysis::ChainCluster::kSquare: ++square; break;
      case analysis::ChainCluster::kEllipse: ++ellipse; break;
    }
  }
  for (const auto& [size, count] : scatter) {
    std::printf("  (%zu nodes, %zu edges): %zu connections\n", size.first, size.second,
                count);
  }
  std::printf("clusters: point(1,1)=%zu  square=%zu  ellipse(I100)=%zu\n\n", p11, square,
              ellipse);

  std::printf("Connections at the (1,1) point (paper: C2-O28, C2-O24, C1-O7, C1-O9,\n"
              "C1-O6, C1-O8, C1-O35, C2-O30, C1-O15, C1-O5):\n");
  for (const auto& c : chains) {
    if (c.cluster == analysis::ChainCluster::kPoint11) {
      // One node with a self-loop: the sequence is that loop's count + 1.
      const auto& loop = c.chain.counts().begin()->second.begin()->second;
      std::printf("  %s  (%llu repeated %s)\n", name_pair(c.pair).c_str(),
                  static_cast<unsigned long long>(loop + 1), c.first_token.c_str());
    }
  }

  std::printf("\nConnections in the ellipse (contain I100):\n");
  for (const auto& c : chains) {
    if (c.cluster == analysis::ChainCluster::kEllipse) {
      std::printf("  %s  (%zu nodes, %zu edges)\n", name_pair(c.pair).c_str(), c.nodes,
                  c.edges);
    }
  }

  // Fig 12-left: a healthy primary chain (largest I-dominated square chain).
  const analysis::ConnectionChain* primary = nullptr;
  const analysis::ConnectionChain* secondary = nullptr;
  const analysis::ConnectionChain* switchover = nullptr;
  for (const auto& c : chains) {
    if (c.cluster == analysis::ChainCluster::kSquare && c.chain.has_node("S") &&
        c.chain.has_node("I_36") && !primary) {
      primary = &c;
    }
    if (c.cluster == analysis::ChainCluster::kSquare && c.nodes == 2 &&
        c.chain.has_node("U16") && c.chain.has_node("U32") && !secondary) {
      secondary = &c;
    }
    if (c.cluster == analysis::ChainCluster::kEllipse && c.chain.has_node("U16") &&
        !switchover) {
      switchover = &c;
    }
  }
  if (primary) {
    std::printf("\nFig 12 (left) — primary connection %s:\n%s",
                name_pair(primary->pair).c_str(), primary->chain.str().c_str());
  }
  if (secondary) {
    std::printf("\nFig 12 (right) — ideal secondary connection %s:\n%s",
                name_pair(secondary->pair).c_str(), secondary->chain.str().c_str());
  }
  if (switchover) {
    std::printf("\nFig 16 — switchover connection %s (U keep-alive, then U1/U2, I100,"
                " data):\n%s",
                name_pair(switchover->pair).c_str(), switchover->chain.str().c_str());
  }

  // Bigram language model over the fleet (Eq. 1-2), most probable bigrams.
  analysis::BigramModel lm;
  for (const auto& c : chains) lm.add_chain(c.chain, c.first_token, c.last_token);
  std::printf("\nBigram LM (MLE) — common transitions:\n");
  for (auto [a, b] : {std::pair{"I_36", "I_36"}, std::pair{"I_36", "S"},
                      std::pair{"S", "I_36"}, std::pair{"U16", "U32"},
                      std::pair{"U1", "U2"}, std::pair{"U2", "I_100"}}) {
    std::printf("  P(%s | %s) = %.3f\n", b, a, lm.probability(a, b));
  }
  return 0;
}
