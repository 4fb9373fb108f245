#include "core/export.hpp"

#include <filesystem>

#include <gtest/gtest.h>

namespace uncharted::core {
namespace {

TEST(Export, MarkovToDot) {
  auto chain = analysis::MarkovChain::from_tokens({"I_36", "I_36", "S", "I_36"});
  std::string dot = markov_to_dot(chain, "C1-O4 primary");
  EXPECT_NE(dot.find("digraph markov {"), std::string::npos);
  EXPECT_NE(dot.find("label=\"C1-O4 primary\""), std::string::npos);
  EXPECT_NE(dot.find("\"I_36\" -> \"I_36\" [label=\"0.50\"]"), std::string::npos);
  EXPECT_NE(dot.find("\"I_36\" -> \"S\" [label=\"0.50\"]"), std::string::npos);
  EXPECT_NE(dot.find("\"S\" -> \"I_36\" [label=\"1.00\"]"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Export, DotEscapesQuotes) {
  auto chain = analysis::MarkovChain::from_tokens({"a\"b", "c"});
  std::string dot = markov_to_dot(chain);
  EXPECT_NE(dot.find("\"a\\\"b\""), std::string::npos);
}

TEST(Export, HistogramToCsv) {
  LogHistogram h(-1, 1, 1);
  h.add(0.5);
  std::string csv = histogram_to_csv(h);
  EXPECT_NE(csv.find("bin_low,bin_high,count"), std::string::npos);
  EXPECT_NE(csv.find(",1"), std::string::npos);
}

TEST(Export, WriteTextFileRoundTrip) {
  auto path = (std::filesystem::temp_directory_path() / "uncharted_export.txt").string();
  ASSERT_TRUE(write_text_file(path, "hello\nworld\n").ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  auto n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "hello\nworld\n");
  std::filesystem::remove(path);
  EXPECT_FALSE(write_text_file("/nonexistent-dir/x.txt", "x").ok());
}

}  // namespace
}  // namespace uncharted::core
