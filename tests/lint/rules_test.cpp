// Token-rule unit tests: each rule's positive and negative space on small
// snippets, independent of the filesystem walker (engine_test covers that).
#include "tools/lint/rules.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/lint/token.hpp"

namespace uncharted::lint {
namespace {

std::vector<Finding> scan(const std::string& rel_path, const std::string& src) {
  FileContext ctx;
  ctx.rel_path = rel_path;
  const std::size_t slash = rel_path.find('/');
  const std::string head = rel_path.substr(0, slash);
  if (head == "src") {
    ctx.zone = Zone::kSrc;
    const std::size_t second = rel_path.find('/', 4);
    if (second != std::string::npos) {
      ctx.module = rel_path.substr(4, second - 4);
    }
  } else if (head == "bench") {
    ctx.zone = Zone::kBench;
  } else if (head == "examples") {
    ctx.zone = Zone::kExamples;
  } else if (head == "tests") {
    ctx.zone = Zone::kTests;
  } else if (head == "tools") {
    ctx.zone = Zone::kTools;
  }
  std::vector<Finding> out;
  run_token_rules(ctx, lex(src), out);
  return out;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

TEST(LintRules, UnorderedContainersFlaggedInSrcOnly) {
  const std::string snippet = "std::unordered_map<int, int> m;";
  EXPECT_TRUE(has_rule(scan("src/analysis/x.cpp", snippet),
                       "determinism-unordered-container"));
  EXPECT_TRUE(has_rule(scan("src/net/x.cpp", snippet),
                       "determinism-unordered-container"));
  EXPECT_TRUE(scan("tests/analysis/x.cpp", snippet).empty());
  EXPECT_TRUE(scan("tools/lint/x.cpp", snippet).empty());
}

TEST(LintRules, PointerKeyedOrderingFlagged) {
  EXPECT_TRUE(has_rule(scan("src/core/x.cpp", "std::map<const Foo*, int> m;"),
                       "determinism-pointer-key"));
  EXPECT_TRUE(has_rule(scan("src/core/x.cpp", "std::set<Foo*> s;"),
                       "determinism-pointer-key"));
  // Pointer as the mapped type is fine; so is a value-keyed map.
  EXPECT_TRUE(scan("src/core/x.cpp", "std::map<int, Foo*> m;").empty());
  EXPECT_TRUE(
      scan("src/core/x.cpp", "std::map<std::string, int> m;").empty());
  // Comparisons spelled `set < value` must not confuse the scanner.
  EXPECT_TRUE(scan("src/core/x.cpp", "bool y = set < 3;").empty());
}

TEST(LintRules, UnseededRngFlaggedOutsideTests) {
  EXPECT_TRUE(has_rule(scan("src/sim/x.cpp", "int a = rand();"),
                       "determinism-unseeded-rng"));
  EXPECT_TRUE(has_rule(scan("bench/x.cpp", "std::random_device rd;"),
                       "determinism-unseeded-rng"));
  EXPECT_TRUE(has_rule(scan("examples/x.cpp", "srand(time(nullptr));"),
                       "determinism-unseeded-rng"));
  EXPECT_TRUE(has_rule(scan("src/sim/x.cpp", "auto t = time(NULL);"),
                       "determinism-unseeded-rng"));
  EXPECT_TRUE(scan("tests/sim/x.cpp", "int a = rand();").empty());
  // `time` with a real argument is the library call, not a seed source.
  EXPECT_TRUE(scan("src/sim/x.cpp", "auto t = time(&now);").empty());
  // A member named rand is not the C library function unless called.
  EXPECT_TRUE(scan("src/sim/x.cpp", "int rand = 3; use(rand);").empty());
}

TEST(LintRules, Seq15RawArithmetic) {
  EXPECT_TRUE(has_rule(scan("src/iec104/conn.cpp", "v = (v + 1) % 32768;"),
                       "seq15-raw-arith"));
  EXPECT_TRUE(has_rule(scan("src/analysis/x.cpp", "v = v & 0x7FFF;"),
                       "seq15-raw-arith"));
  EXPECT_TRUE(has_rule(scan("examples/x.cpp", "v %= 32768;"),
                       "seq15-raw-arith"));
  EXPECT_TRUE(has_rule(scan("tests/iec104/x.cpp", "v = v % 0x8000;"),
                       "seq15-raw-arith"));
  EXPECT_TRUE(has_rule(scan("src/iec104/conn.cpp", "v = v % kSeqModulo;"),
                       "seq15-raw-arith"));
  // The consolidation home is exempt; unrelated moduli/masks are clean.
  EXPECT_TRUE(scan("src/iec104/seq15.hpp", "v = v % 32768;").empty());
  EXPECT_TRUE(scan("src/iec104/conn.cpp", "v = v % 100;").empty());
  EXPECT_TRUE(scan("src/iec104/conn.cpp", "v = v & 0xff;").empty());
  // 32768/32767 as plain values (clamps, limits) are not wrap arithmetic.
  EXPECT_TRUE(
      scan("src/iec104/conn.cpp", "x = std::clamp(v, -32768.0, 32767.0);")
          .empty());
}

TEST(LintRules, DecoderByteSafety) {
  EXPECT_TRUE(has_rule(scan("src/iec104/p.cpp", "auto v = buf[pos + 1];"),
                       "decoder-byte-index"));
  EXPECT_TRUE(has_rule(scan("src/iccp/p.cpp", "auto v = buf[n - 2];"),
                       "decoder-byte-index"));
  EXPECT_TRUE(has_rule(scan("src/iccp/p.cpp", "memcpy(dst, src, n);"),
                       "decoder-memcpy"));
  EXPECT_TRUE(has_rule(scan("src/synchro/p.cpp", "std::memmove(d, s, n);"),
                       "decoder-memcpy"));
  // Single-index access, `->`/`++` inside subscripts, and non-decoder
  // modules are all clean.
  EXPECT_TRUE(scan("src/iec104/p.cpp", "auto v = buf[pos];").empty());
  EXPECT_TRUE(scan("src/iec104/p.cpp", "auto v = buf[p->idx];").empty());
  EXPECT_TRUE(scan("src/iec104/p.cpp", "auto v = buf[i++];").empty());
  EXPECT_TRUE(scan("src/analysis/p.cpp", "auto v = buf[pos + 1];").empty());
  EXPECT_TRUE(scan("src/util/bytes.cpp", "memcpy(dst, src, n);").empty());
  // Lambda introducers are not subscripts.
  EXPECT_TRUE(
      scan("src/iec104/p.cpp", "auto f = [a, b]() { return a; };").empty());
}

TEST(LintRules, RawSocketFlaggedOutsideNetd) {
  EXPECT_TRUE(has_rule(scan("src/analysis/x.cpp", "int fd = accept(s, a, l);"),
                       "netd-raw-socket"));
  EXPECT_TRUE(has_rule(scan("src/core/x.cpp", "auto n = ::read(fd, b, 16);"),
                       "netd-raw-socket"));
  // Too-generic names stay legal when not `::`-qualified; member and
  // namespace-qualified calls are someone else's API.
  EXPECT_TRUE(scan("src/core/x.cpp", "auto n = read(fd, b, 16);").empty());
  EXPECT_TRUE(scan("src/core/x.cpp", "auto n = sock.send(b);").empty());
  EXPECT_TRUE(scan("src/core/x.cpp", "auto n = wire::recv(b);").empty());
}

TEST(LintRules, NetdDataPlaneMustUseTheSysOpsShim) {
  // Inside src/netd the rule enforces the SysOps shim on the data plane.
  EXPECT_TRUE(has_rule(scan("src/netd/x.cpp", "int fd = accept(s, a, l);"),
                       "netd-raw-socket"));
  EXPECT_TRUE(has_rule(scan("src/netd/x.cpp", "auto n = ::recv(fd, b, 16, 0);"),
                       "netd-raw-socket"));
  EXPECT_TRUE(has_rule(scan("src/netd/x.cpp", "auto n = ::write(fd, b, 1);"),
                       "netd-raw-socket"));
  EXPECT_TRUE(has_rule(scan("src/netd/x.cpp", "epoll_wait(ep, evs, 64, 0);"),
                       "netd-raw-socket"));
  // Setup-plane calls stay legal in netd (once per connection, not per
  // byte), as do shim-routed calls.
  EXPECT_TRUE(scan("src/netd/x.cpp", "int s = ::socket(AF_INET, t, 0);").empty());
  EXPECT_TRUE(scan("src/netd/x.cpp", "::listen(s, 64);").empty());
  EXPECT_TRUE(scan("src/netd/x.cpp", "::connect(s, a, l);").empty());
  EXPECT_TRUE(scan("src/netd/x.cpp", "sys_.recv(fd, b, 16, 0);").empty());
  EXPECT_TRUE(
      scan("src/netd/x.cpp", "faultinject::retry_recv(sys_, fd, b, 16);")
          .empty());
}

TEST(LintRules, StorageSyscallsMustUseTheSysOpsShim) {
  // ::rename/::fsync are the checkpoint writer's fault surface — shim-only
  // everywhere, netd or not.
  EXPECT_TRUE(has_rule(scan("src/core/x.cpp", "::rename(from, to);"),
                       "netd-raw-socket"));
  EXPECT_TRUE(has_rule(scan("src/netd/x.cpp", "::fsync(fd);"),
                       "netd-raw-socket"));
  EXPECT_TRUE(has_rule(scan("examples/x.cpp", "::fdatasync(fd);"),
                       "netd-raw-socket"));
  // Qualified/member forms are other APIs (std::filesystem::rename, the
  // shim's own methods); bare `rename(` is too generic to flag.
  EXPECT_TRUE(
      scan("src/core/x.cpp", "std::filesystem::rename(a, b);").empty());
  EXPECT_TRUE(scan("src/core/x.cpp", "sys.rename(a, b);").empty());
  EXPECT_TRUE(scan("src/core/x.cpp", "rename(a, b);").empty());
}

TEST(LintRules, SysfaultShimIsExemptFromRawSyscallRules) {
  const std::string raw =
      "ssize_t n = ::read(fd, b, 16);"
      "int r = ::rename(f, t);"
      "int afd = accept(s, a, l);";
  EXPECT_TRUE(scan("src/faultinject/sysfault.cpp", raw).empty());
  EXPECT_TRUE(scan("src/faultinject/sysfault.hpp", raw).empty());
  // The exemption is exactly those two files, not the whole module.
  EXPECT_TRUE(has_rule(scan("src/faultinject/fault.cpp", raw),
                       "netd-raw-socket"));
}

TEST(LintRules, VectorPayloadParamsFlaggedInSrcNetOnly) {
  const std::string by_cref =
      "void deliver(Timestamp ts, const std::vector<std::uint8_t>& payload);";
  const std::string by_value =
      "Status feed(std::vector<std::uint8_t> payload);";
  const std::string unnamed =
      "using Sink = std::function<void(const std::vector<std::uint8_t>&)>;";
  EXPECT_TRUE(
      has_rule(scan("src/net/x.hpp", by_cref), "zerocopy-vector-payload"));
  EXPECT_TRUE(
      has_rule(scan("src/net/x.cpp", by_value), "zerocopy-vector-payload"));
  EXPECT_TRUE(
      has_rule(scan("src/net/x.hpp", unnamed), "zerocopy-vector-payload"));
  // Only src/net carries the span-only contract.
  EXPECT_FALSE(
      has_rule(scan("src/iec104/x.hpp", by_cref), "zerocopy-vector-payload"));
  EXPECT_FALSE(
      has_rule(scan("tests/net/x.cpp", by_cref), "zerocopy-vector-payload"));
  // Owning storage stays legal: members, locals, return types, and
  // constructing a vector at a call site are not payload parameters.
  EXPECT_TRUE(scan("src/net/x.hpp",
                   "struct CapturedPacket { std::vector<std::uint8_t> data; };")
                  .empty());
  EXPECT_TRUE(
      scan("src/net/x.cpp", "std::vector<std::uint8_t> owned = read_all();")
          .empty());
  EXPECT_TRUE(scan("src/net/x.hpp",
                   "std::vector<std::uint8_t> take() { return buf_; }")
                  .empty());
  EXPECT_TRUE(
      scan("src/net/x.cpp", "sink(std::vector<std::uint8_t>(first, last));")
          .empty());
  // The element type matters: a vector of frames is not a payload buffer.
  EXPECT_TRUE(
      scan("src/net/x.hpp", "void add(const std::vector<FrameView>& v);")
          .empty());
  EXPECT_TRUE(has_rule(scan("src/net/x.hpp", by_cref + by_value),
                       "zerocopy-vector-payload"));
}

TEST(LintRules, OwningPacketFlaggedInSrcAnalysisOnly) {
  const std::string param =
      "BackgroundTraffic scan(const std::vector<net::CapturedPacket>& packets);";
  EXPECT_TRUE(has_rule(scan("src/analysis/x.hpp", param), "zerocopy-owning-packet"));
  EXPECT_TRUE(has_rule(scan("src/analysis/x.cpp", "net::CapturedPacket pkt;"),
                       "zerocopy-owning-packet"));
  // Other layers may still hold owning packets, and comments never count.
  EXPECT_FALSE(has_rule(scan("src/sim/x.hpp", param), "zerocopy-owning-packet"));
  EXPECT_FALSE(has_rule(scan("tests/analysis/x.cpp", param), "zerocopy-owning-packet"));
  EXPECT_TRUE(scan("src/analysis/x.hpp", "// no CapturedPacket here\n").empty());
  EXPECT_TRUE(
      scan("src/analysis/x.hpp", "void scan(std::span<const net::FrameView> f);").empty());
}

TEST(LintRules, CatalogKnowsEveryEmittedRule) {
  EXPECT_TRUE(is_known_rule("determinism-unordered-container"));
  EXPECT_TRUE(is_known_rule("determinism-pointer-key"));
  EXPECT_TRUE(is_known_rule("determinism-unseeded-rng"));
  EXPECT_TRUE(is_known_rule("seq15-raw-arith"));
  EXPECT_TRUE(is_known_rule("decoder-byte-index"));
  EXPECT_TRUE(is_known_rule("decoder-memcpy"));
  EXPECT_TRUE(is_known_rule("zerocopy-vector-payload"));
  EXPECT_TRUE(is_known_rule("zerocopy-owning-packet"));
  EXPECT_TRUE(is_known_rule("layering-order"));
  EXPECT_TRUE(is_known_rule("layering-cycle"));
  EXPECT_TRUE(is_known_rule("layering-unranked"));
  EXPECT_FALSE(is_known_rule("no-such-rule"));
}

}  // namespace
}  // namespace uncharted::lint
