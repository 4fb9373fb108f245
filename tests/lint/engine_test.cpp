// End-to-end scans: the golden-bad fixture repo must produce exactly the
// expected findings (rule id + file + line), the suppression fixture must
// scan clean with counted waivers, and the live source tree must be clean —
// that last test is the build-time guarantee the analyzer exists for.
#include "tools/lint/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

namespace uncharted::lint {
namespace {

#ifndef UNCHARTED_LINT_FIXTURES
#error "UNCHARTED_LINT_FIXTURES must point at tests/lint/fixtures"
#endif
#ifndef UNCHARTED_SOURCE_DIR
#error "UNCHARTED_SOURCE_DIR must point at the repository root"
#endif

using Key = std::tuple<std::string, int, std::string>;  // file, line, rule

std::set<Key> keys(const Report& report) {
  std::set<Key> out;
  for (const Finding& f : report.violations) {
    out.insert(Key{f.file, f.line, f.rule});
  }
  return out;
}

TEST(LintEngine, GoldenBadRepoFlagsEveryRule) {
  Options options;
  options.root = std::string(UNCHARTED_LINT_FIXTURES) + "/badrepo";
  const Report report = run_scan(options);

  const std::set<Key> expected = {
      {"bench/bench_rng.cpp", 5, "determinism-unseeded-rng"},
      {"src/analysis/rng.cpp", 9, "determinism-unseeded-rng"},
      {"src/analysis/rng.cpp", 10, "determinism-unseeded-rng"},
      {"src/analysis/rng.cpp", 11, "determinism-unseeded-rng"},
      {"src/analysis/rng.cpp", 13, "determinism-unseeded-rng"},
      {"src/analysis/rawsock.cpp", 5, "netd-raw-socket"},
      {"src/analysis/rawsock.cpp", 6, "netd-raw-socket"},
      {"src/analysis/rawsock.cpp", 7, "netd-raw-socket"},
      {"src/analysis/rawsock.cpp", 8, "netd-raw-socket"},
      {"src/analysis/owning.cpp", 7, "zerocopy-owning-packet"},
      {"src/analysis/owning.cpp", 9, "zerocopy-owning-packet"},
      {"src/analysis/unordered.cpp", 11, "determinism-unordered-container"},
      {"src/analysis/unordered.cpp", 12, "determinism-unordered-container"},
      {"src/analysis/unordered.cpp", 13, "determinism-pointer-key"},
      {"src/analysis/unordered.cpp", 14, "determinism-pointer-key"},
      {"src/core/badallow.cpp", 7, "determinism-unordered-container"},
      {"src/core/badallow.cpp", 7, "lint-allow-missing-justification"},
      {"src/core/badallow.cpp", 8, "determinism-unordered-container"},
      {"src/core/badallow.cpp", 8, "lint-allow-unknown-rule"},
      {"src/core/badallow.cpp", 9, "lint-allow-unused"},
      {"src/iec104/rawbytes.cpp", 8, "decoder-byte-index"},
      {"src/iec104/rawbytes.cpp", 11, "decoder-memcpy"},
      {"src/iec104/rawseq.cpp", 7, "seq15-raw-arith"},
      {"src/iec104/rawseq.cpp", 8, "seq15-raw-arith"},
      {"src/iec104/rawseq.cpp", 9, "seq15-raw-arith"},
      {"src/iec104/rawseq.cpp", 10, "seq15-raw-arith"},
      {"src/plugin/orphan.cpp", 1, "layering-unranked"},
      {"src/util/uplayer.hpp", 5, "layering-cycle"},
      {"src/util/uplayer.hpp", 5, "layering-order"},
  };
  EXPECT_EQ(keys(report), expected);
  // tests/ zone exemption: the rand() in tests/rng_ok_in_tests.cpp did not
  // appear above, but the file was scanned.
  EXPECT_GE(report.files_scanned, 9);
}

TEST(LintEngine, SuppressionsHonoredAndCounted) {
  Options options;
  options.root = std::string(UNCHARTED_LINT_FIXTURES) + "/allowrepo";
  const Report report = run_scan(options);
  EXPECT_TRUE(report.clean()) << render_text(report);
  ASSERT_EQ(report.suppressions.size(), 4u);
  EXPECT_EQ(report.suppressions[0].rule, "determinism-unordered-container");
  EXPECT_EQ(report.suppressions[0].line, 9);
  EXPECT_FALSE(report.suppressions[0].justification.empty());
  EXPECT_EQ(report.suppressions[1].rule, "determinism-unseeded-rng");
  EXPECT_EQ(report.suppressions[1].line, 11);
  EXPECT_EQ(report.suppressions[2].rule, "netd-raw-socket");
  EXPECT_EQ(report.suppressions[2].line, 14);
  EXPECT_EQ(report.suppressions[3].rule, "zerocopy-vector-payload");
  EXPECT_EQ(report.suppressions[3].file, "src/net/waived_net.cpp");
}

TEST(LintEngine, ExplicitPathScansFixturesVerbatim) {
  // The default walk excludes tests/lint/fixtures; an explicit path does
  // not, which is how these golden files stay scannable at all.
  Options options;
  options.root = std::string(UNCHARTED_LINT_FIXTURES) + "/badrepo";
  options.paths = {"src/iec104/rawseq.cpp"};
  const Report report = run_scan(options);
  EXPECT_EQ(report.files_scanned, 1);
  EXPECT_EQ(report.violations.size(), 4u);
  for (const Finding& f : report.violations) {
    EXPECT_EQ(f.rule, "seq15-raw-arith");
  }
}

TEST(LintEngine, LiveTreeScansClean) {
  Options options;
  options.root = UNCHARTED_SOURCE_DIR;
  const Report report = run_scan(options);
  EXPECT_TRUE(report.clean()) << render_text(report);
  // The walk really covered the tree (src + bench + examples + tests +
  // tools), not an empty directory.
  EXPECT_GE(report.files_scanned, 150);
}

TEST(LintEngine, JsonRenderIsStableAndEscaped) {
  Options options;
  options.root = std::string(UNCHARTED_LINT_FIXTURES) + "/badrepo";
  options.paths = {"src/iec104/rawbytes.cpp"};
  const Report report = run_scan(options);
  const std::string json = render_json(report);
  EXPECT_NE(json.find("\"tool\": \"unchartedlint\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"decoder-byte-index\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/iec104/rawbytes.cpp\""),
            std::string::npos);
  EXPECT_NE(json.find("\"counts\": {\"violations\": 2"), std::string::npos);
  // No unescaped control characters may survive rendering.
  for (char c : json) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);
  }
}

TEST(LintEngine, MissingRootIsAnError) {
  Options options;
  options.root = std::string(UNCHARTED_LINT_FIXTURES) + "/no-such-dir";
  EXPECT_THROW(run_scan(options), std::runtime_error);
}

}  // namespace
}  // namespace uncharted::lint
