#include "include_graph.hpp"

#include <algorithm>
#include <set>

namespace uncharted::lint {
namespace {

std::string first_segment(const std::string& path) {
  const std::size_t slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

std::optional<int> module_rank(const std::string& module) {
  static const std::map<std::string, int> kRanks = {
      {"util", 0},        {"exec", 0},    {"health", 1},  {"net", 1},
      {"faultinject", 2}, {"iec104", 2},  {"iccp", 2},    {"synchro", 2},
      {"power", 2},       {"netd", 3},    {"analysis", 4}, {"sim", 4},
      {"core", 5},
  };
  const auto it = kRanks.find(module);
  if (it == kRanks.end()) return std::nullopt;
  return it->second;
}

void IncludeGraph::add_file(const FileContext& ctx,
                            const std::vector<Token>& tokens) {
  if (ctx.zone != Zone::kSrc || ctx.module.empty()) return;
  if (!module_rank(ctx.module).has_value()) unranked_[ctx.rel_path] = ctx.module;
  // Node key: path relative to src/ (project includes are spelled that way).
  const std::string key = ctx.rel_path.substr(std::string("src/").size());
  auto& edges = adj_[key];  // registers the node even with no includes
  for (const Token& t : tokens) {
    if (t.kind != Tok::kInclude || t.angled) continue;
    if (!module_rank(first_segment(t.text)).has_value()) continue;
    edges.push_back(Edge{t.text, t.line, ctx.rel_path, ctx.module});
  }
}

void IncludeGraph::check(std::vector<Finding>& out) const {
  // A module missing from the rank table would escape layering-order.
  for (const auto& [file, module] : unranked_) {
    out.push_back(Finding{
        "layering-unranked", file, 1,
        "module '" + module +
            "' has no rank: add it to the layer order in "
            "tools/lint/include_graph.cpp"});
  }
  // Rank violations: includes must point strictly down the module order.
  for (const auto& [file, edges] : adj_) {
    for (const Edge& e : edges) {
      const std::string target = first_segment(e.to);
      if (target == e.module) continue;
      const auto from_rank = module_rank(e.module);
      const auto to_rank = module_rank(target);
      if (!from_rank || !to_rank) continue;
      if (*to_rank >= *from_rank) {
        out.push_back(Finding{
            "layering-order", e.file, e.line,
            "module '" + e.module + "' (rank " + std::to_string(*from_rank) +
                ") may not include \"" + e.to + "\" (module '" + target +
                "', rank " + std::to_string(*to_rank) +
                "): includes must point strictly down the layer order"});
      }
    }
  }

  // Cycle detection: iterative DFS with a gray stack; each back edge is
  // reported once, at the include that closes the cycle.
  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  for (const auto& [file, edges] : adj_) color[file] = Color::kWhite;

  struct Frame {
    std::string node;
    std::size_t next_edge = 0;
  };
  for (const auto& [start, start_edges] : adj_) {
    if (color[start] != Color::kWhite) continue;
    std::vector<Frame> stack;
    stack.push_back(Frame{start, 0});
    color[start] = Color::kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto it = adj_.find(frame.node);
      const std::vector<Edge>& edges = it->second;
      if (frame.next_edge >= edges.size()) {
        color[frame.node] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const Edge& e = edges[frame.next_edge++];
      const auto target_it = adj_.find(e.to);
      if (target_it == adj_.end()) continue;  // header outside the scan set
      const Color target_color = color[e.to];
      if (target_color == Color::kWhite) {
        color[e.to] = Color::kGray;
        stack.push_back(Frame{e.to, 0});
      } else if (target_color == Color::kGray) {
        // Reconstruct the cycle from the gray stack for the message.
        std::string cycle = e.to;
        std::size_t from = 0;
        for (std::size_t i = 0; i < stack.size(); ++i) {
          if (stack[i].node == e.to) from = i;
        }
        for (std::size_t i = from; i < stack.size(); ++i) {
          if (stack[i].node != e.to) cycle += " -> " + stack[i].node;
        }
        cycle += " -> " + e.to;
        out.push_back(Finding{"layering-cycle", e.file, e.line,
                              "include cycle: " + cycle});
      }
    }
  }
}

}  // namespace uncharted::lint
