// Project-invariant rules for unchartedlint.
//
// Each rule guards an invariant the reproduction's correctness story depends
// on (see DESIGN.md §11 for the catalog and the policy for adding rules):
//
//   determinism-unordered-container  no std::unordered_{map,set,...} in src/
//                                    — hash iteration order would leak into
//                                    reports and checkpoints
//   determinism-pointer-key          no pointer-keyed std::map/std::set in
//                                    src/ — address order varies run to run
//   determinism-unseeded-rng         no rand()/std::random_device/
//                                    time(nullptr)/std:: engines in src/,
//                                    bench/, examples/ — all randomness goes
//                                    through the seeded util/rng.hpp wrapper
//   seq15-raw-arith                  no raw `% 32768` / `& 0x7fff` 15-bit
//                                    wrap arithmetic outside iec104/seq15.hpp
//   decoder-byte-index               no `buf[i + k]` offset subscripts on
//                                    wire buffers inside decoder modules —
//                                    bounded access goes through util/bytes
//   decoder-memcpy                   no memcpy inside decoder modules
//   netd-raw-socket                  no raw blocking socket calls
//                                    (::accept/::recv/epoll_* ...) outside
//                                    src/netd — live I/O goes through the
//                                    non-blocking reactor so nothing can
//                                    stall the analysis path
//   zerocopy-vector-payload          no std::vector<std::uint8_t> payload
//                                    parameters in src/net — decode paths
//                                    are span-only so the mmap'd hot path
//                                    never copies to call them
//   zerocopy-owning-packet           no net::CapturedPacket in src/analysis
//                                    — the analysis layer takes FrameViews,
//                                    and frames that must wait are queued
//                                    as bytes in a net::FrameQueue
//   layering-order                   module includes must follow the ranked
//                                    DAG in include_graph.cpp
//   layering-cycle                   the file-level include graph must be
//                                    acyclic
//   layering-unranked                every src/ module must have a rank in
//                                    that DAG
//
// Every rule is suppressible in place with an UNCHARTED-LINT-ALLOW comment
// naming the rule id in parentheses followed by a colon and a mandatory
// justification, placed on the violating line or the line directly above.
// (The literal form is spelled out in DESIGN.md §11 — writing it here
// would register this comment as a suppression.) Unknown rule ids are
// rejected, and a suppression that matches nothing is itself a violation
// (lint-allow-unused) so stale waivers cannot accumulate.
#pragma once

#include <string>
#include <vector>

#include "token.hpp"

namespace uncharted::lint {

/// Which top-level tree a file belongs to; selects the applicable rules.
enum class Zone { kSrc, kBench, kExamples, kTests, kTools, kOther };

struct FileContext {
  std::string rel_path;  ///< '/'-separated path relative to the scan root
  Zone zone = Zone::kOther;
  std::string module;    ///< first component under src/ ("iec104", ...), else ""
};

struct Finding {
  std::string rule;
  std::string file;  ///< rel_path of the offending file
  int line = 0;
  std::string message;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// All suppressible rule ids (token rules + include-graph rules).
const std::vector<RuleInfo>& rule_catalog();

/// True if `id` names a rule in the catalog.
bool is_known_rule(const std::string& id);

/// Runs every token-level rule applicable to `ctx` over `tokens`,
/// appending findings. Comment tokens are ignored here (suppressions are
/// handled by the engine); include tokens feed the include graph, not
/// these rules.
void run_token_rules(const FileContext& ctx, const std::vector<Token>& tokens,
                     std::vector<Finding>& out);

}  // namespace uncharted::lint
