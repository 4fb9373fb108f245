#include "rules.hpp"

#include <algorithm>
#include <array>
#include <optional>

namespace uncharted::lint {
namespace {

const std::array<const char*, 3> kDecoderModules = {"iec104", "iccp", "synchro"};

/// The one file allowed to spell 15-bit wrap arithmetic.
constexpr const char* kSeq15Home = "src/iec104/seq15.hpp";

bool is_decoder_module(const FileContext& ctx) {
  return ctx.zone == Zone::kSrc &&
         std::find(kDecoderModules.begin(), kDecoderModules.end(),
                   ctx.module) != kDecoderModules.end();
}

/// Decodes an integer literal's value; nullopt for floats and malformed
/// text. Handles hex/octal/binary prefixes, digit separators, and suffixes.
std::optional<unsigned long long> integer_value(const std::string& text) {
  std::string digits;
  digits.reserve(text.size());
  for (char c : text) {
    if (c != '\'') digits.push_back(c);
  }
  int base = 10;
  std::size_t pos = 0;
  if (digits.size() > 1 && digits[0] == '0') {
    if (digits[1] == 'x' || digits[1] == 'X') {
      base = 16;
      pos = 2;
    } else if (digits[1] == 'b' || digits[1] == 'B') {
      base = 2;
      pos = 2;
    } else {
      base = 8;
      pos = 1;
    }
  }
  unsigned long long value = 0;
  std::size_t consumed = 0;
  for (; pos < digits.size(); ++pos) {
    const char c = digits[pos];
    int d = -1;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      d = c - 'A' + 10;
    }
    if (d < 0 || d >= base) break;
    value = value * static_cast<unsigned long long>(base) +
            static_cast<unsigned long long>(d);
    ++consumed;
  }
  // Whatever remains must be an integer suffix; '.', 'e', 'p' mean float.
  for (; pos < digits.size(); ++pos) {
    const char c = digits[pos];
    if (c == 'u' || c == 'U' || c == 'l' || c == 'L' || c == 'z' || c == 'Z') {
      continue;
    }
    return std::nullopt;
  }
  if (consumed == 0) return std::nullopt;
  return value;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == Tok::kPunct && t.text == text;
}

void add(std::vector<Finding>& out, const FileContext& ctx, const char* rule,
         int line, std::string message) {
  out.push_back(Finding{rule, ctx.rel_path, line, std::move(message)});
}

// ---------------------------------------------------------------------------
// determinism-unordered-container / determinism-pointer-key
// ---------------------------------------------------------------------------

void rule_unordered_container(const FileContext& ctx,
                              const std::vector<Token>& code,
                              std::vector<Finding>& out) {
  static const std::array<const char*, 4> kBanned = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const Token& t : code) {
    if (t.kind != Tok::kIdent) continue;
    if (std::find(kBanned.begin(), kBanned.end(), t.text) == kBanned.end()) {
      continue;
    }
    add(out, ctx, "determinism-unordered-container", t.line,
        "std::" + t.text +
            " in a pipeline translation unit: hash iteration order feeds "
            "reports/checkpoints; use std::map/std::set or sort before "
            "emitting");
  }
}

void rule_pointer_key(const FileContext& ctx, const std::vector<Token>& code,
                      std::vector<Finding>& out) {
  static const std::array<const char*, 4> kOrdered = {"map", "set", "multimap",
                                                      "multiset"};
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != Tok::kIdent ||
        std::find(kOrdered.begin(), kOrdered.end(), t.text) == kOrdered.end() ||
        !is_punct(code[i + 1], "<")) {
      continue;
    }
    // Scan the key type: tokens until a depth-1 ',' or the closing '>'.
    int depth = 1;
    const Token* last = nullptr;
    for (std::size_t j = i + 2; j < code.size() && j < i + 256; ++j) {
      const Token& u = code[j];
      if (u.kind == Tok::kPunct) {
        if (u.text == "<" || u.text == "(" || u.text == "[" || u.text == "{") {
          ++depth;
        } else if (u.text == ">" || u.text == ")" || u.text == "]" ||
                   u.text == "}") {
          --depth;
        } else if (u.text == ">>") {
          depth -= 2;
        } else if (u.text == "," && depth == 1) {
          break;  // key type ends here
        } else if (u.text == ";") {
          break;  // not a template argument list after all
        }
        if (depth <= 0) break;
      }
      last = &u;
    }
    if (last != nullptr && is_punct(*last, "*")) {
      add(out, ctx, "determinism-pointer-key", t.line,
          "pointer-keyed std::" + t.text +
              ": address order varies across runs; key on a stable id "
              "instead");
    }
  }
}

// ---------------------------------------------------------------------------
// determinism-unseeded-rng
// ---------------------------------------------------------------------------

void rule_unseeded_rng(const FileContext& ctx, const std::vector<Token>& code,
                       std::vector<Finding>& out) {
  static const std::array<const char*, 10> kEngines = {
      "random_device", "random_shuffle", "mt19937",
      "mt19937_64",    "minstd_rand",    "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != Tok::kIdent) continue;
    if (std::find(kEngines.begin(), kEngines.end(), t.text) != kEngines.end()) {
      add(out, ctx, "determinism-unseeded-rng", t.line,
          "std::" + t.text +
              ": all randomness goes through the seeded util/rng.hpp "
              "wrapper so captures replay from a single seed");
      continue;
    }
    const bool call = i + 1 < code.size() && is_punct(code[i + 1], "(");
    if ((t.text == "rand" || t.text == "srand") && call) {
      add(out, ctx, "determinism-unseeded-rng", t.line,
          t.text + "(): C library RNG is unseeded process-global state; use "
                   "the seeded util/rng.hpp wrapper");
      continue;
    }
    if (t.text == "time" && call && i + 3 < code.size() &&
        is_punct(code[i + 3], ")")) {
      const Token& arg = code[i + 2];
      const bool null_arg =
          (arg.kind == Tok::kIdent &&
           (arg.text == "nullptr" || arg.text == "NULL")) ||
          (arg.kind == Tok::kNumber && integer_value(arg.text) == 0ULL);
      if (null_arg) {
        add(out, ctx, "determinism-unseeded-rng", t.line,
            "time(nullptr): wall-clock seeding makes runs unreproducible; "
            "thread an explicit seed or timestamp through instead");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// seq15-raw-arith
// ---------------------------------------------------------------------------

void rule_seq15(const FileContext& ctx, const std::vector<Token>& code,
                std::vector<Finding>& out) {
  if (ctx.rel_path == kSeq15Home) return;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& op = code[i];
    if (op.kind != Tok::kPunct) continue;
    const Token& rhs = code[i + 1];
    const bool modulo = op.text == "%" || op.text == "%=";
    const bool mask = op.text == "&" || op.text == "&=";
    if (!modulo && !mask) continue;
    bool hit = false;
    if (rhs.kind == Tok::kNumber) {
      const auto v = integer_value(rhs.text);
      hit = v.has_value() && ((modulo && *v == 32768ULL) ||
                              (mask && *v == 32767ULL));
    } else if (rhs.kind == Tok::kIdent && modulo &&
               rhs.text == "kSeqModulo") {
      hit = true;
    }
    if (hit) {
      add(out, ctx, "seq15-raw-arith", op.line,
          "raw 15-bit wrap arithmetic (`" + op.text + " " + rhs.text +
              "`): use seq15()/seq15_next()/seq15_delta() from "
              "iec104/seq15.hpp so every wrap comparison shares one "
              "implementation");
    }
  }
}

// ---------------------------------------------------------------------------
// decoder-byte-index / decoder-memcpy
// ---------------------------------------------------------------------------

void rule_decoder_bytes(const FileContext& ctx, const std::vector<Token>& code,
                        std::vector<Finding>& out) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind == Tok::kIdent && (t.text == "memcpy" || t.text == "memmove")) {
      add(out, ctx, "decoder-memcpy", t.line,
          t.text + " in a decoder module: wire bytes are read through the "
                   "bounds-checked util/bytes accessors, never block-copied");
      continue;
    }
    if (!is_punct(t, "[") || i == 0) continue;
    // Subscript (not a lambda introducer or attribute): '[' directly after
    // a postfix expression.
    const Token& prev = code[i - 1];
    const bool subscript =
        prev.kind == Tok::kIdent ||
        (prev.kind == Tok::kPunct && (prev.text == ")" || prev.text == "]"));
    if (!subscript) continue;
    int depth = 1;
    for (std::size_t j = i + 1; j < code.size() && depth > 0; ++j) {
      const Token& u = code[j];
      if (u.kind != Tok::kPunct) continue;
      if (u.text == "[" || u.text == "(") {
        ++depth;
      } else if (u.text == "]" || u.text == ")") {
        --depth;
      } else if (u.text == "+" || u.text == "-") {
        add(out, ctx, "decoder-byte-index", t.line,
            "offset subscript on a wire buffer: slice a span first or use "
            "the bounds-checked util/bytes readers (a bad offset must be a "
            "decode error, not UB)");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// netd-raw-socket
// ---------------------------------------------------------------------------

bool is_sysfault_shim(const FileContext& ctx) {
  // The SysOps shim itself (RealSysOps is the one legitimate home of every
  // raw data-plane and storage syscall in the tree).
  return ctx.rel_path == "src/faultinject/sysfault.cpp" ||
         ctx.rel_path == "src/faultinject/sysfault.hpp";
}

void rule_raw_socket(const FileContext& ctx, const std::vector<Token>& code,
                     std::vector<Finding>& out) {
  // Outside src/netd — names that are unambiguously socket/reactor
  // plumbing: flagged as a bare or global-scope call.
  static const std::array<const char*, 11> kAlways = {
      "socket", "accept", "accept4",       "listen",
      "recv",   "recvfrom", "recvmsg",     "epoll_create",
      "epoll_create1", "epoll_ctl", "epoll_wait"};
  // Outside src/netd — names too generic to flag bare (read/write/bind/
  // connect are everywhere): flagged only as explicit `::name(`.
  static const std::array<const char*, 9> kGlobalOnly = {
      "read", "write", "send", "sendto", "sendmsg",
      "connect", "bind", "poll", "select"};
  // Inside src/netd — data-plane calls that must go through the
  // faultinject::SysOps shim so chaos tests can reach them. Setup-plane
  // calls (socket/listen/bind/connect/epoll_ctl/setsockopt/close) stay
  // legal: they run once per connection, not per byte, and faulting them
  // adds nothing the data plane doesn't already cover.
  static const std::array<const char*, 10> kNetdShimAlways = {
      "accept", "accept4", "recv",       "recvfrom",   "recvmsg",
      "send",   "sendto",  "sendmsg",    "epoll_wait", "epoll_pwait"};
  static const std::array<const char*, 4> kNetdShimGlobalOnly = {
      "read", "write", "poll", "select"};
  // Everywhere (including netd) — storage-durability syscalls: the
  // checkpoint writer's fault surface. `std::filesystem::rename` is a
  // qualified call and stays legal; raw `::rename`/`::fsync` bypass the
  // shim.
  static const std::array<const char*, 3> kStorageGlobalOnly = {
      "rename", "fsync", "fdatasync"};

  if (is_sysfault_shim(ctx)) return;
  const bool in_netd = ctx.module == "netd";

  auto in = [](const auto& arr, const std::string& name) {
    return std::find(arr.begin(), arr.end(), name) != arr.end();
  };
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != Tok::kIdent || !is_punct(code[i + 1], "(")) continue;
    const bool storage = in(kStorageGlobalOnly, t.text);
    const bool always =
        !storage && (in_netd ? in(kNetdShimAlways, t.text)
                             : in(kAlways, t.text));
    const bool global_only =
        storage || (in_netd ? in(kNetdShimGlobalOnly, t.text)
                            : in(kGlobalOnly, t.text));
    if (!always && !global_only) continue;
    bool global_scope = false;  // written `::name(`
    if (i > 0) {
      const Token& prev = code[i - 1];
      if (prev.kind == Tok::kPunct && (prev.text == "." || prev.text == "->")) {
        continue;  // member call
      }
      if (prev.kind == Tok::kPunct && prev.text == "::") {
        // Qualified: `foo::name(` is some other API; `::name(` is libc.
        if (i > 1 && code[i - 2].kind == Tok::kIdent) continue;
        global_scope = true;
      }
    }
    if (!always && !global_scope) continue;
    std::string why;
    if (storage) {
      why = "(): raw storage syscalls bypass the faultinject::SysOps shim; "
            "route durability through SysOps (see core/checkpoint.cpp) so "
            "the chaos tests can serve this path ENOSPC/EIO/torn renames";
    } else if (in_netd) {
      why = "(): raw data-plane syscalls inside src/netd bypass the "
            "faultinject::SysOps shim and its retry helpers; call through "
            "sys_/retry_read/retry_recv/retry_send/retry_accept instead";
    } else {
      why = "(): blocking socket calls outside src/netd stall the analysis "
            "path and bypass admission control/backpressure; go through the "
            "netd reactor, IngestServer, or FleetClient";
    }
    add(out, ctx, "netd-raw-socket", t.line,
        (global_scope ? "::" + t.text : t.text) + why);
  }
}

// ---------------------------------------------------------------------------
// zerocopy-vector-payload
// ---------------------------------------------------------------------------

/// src/net is the zero-copy substrate: decode-path functions take payload
/// bytes as std::span views so the mmap'd hot path never materializes a
/// vector to call them. A `std::vector<std::uint8_t>` parameter reintroduces
/// an owning-buffer contract (and usually a copy at every call site). The
/// detector keys on parameter position — a vector-of-bytes type directly
/// after '(' or ',' followed by a parameter name or the end of the list —
/// so owning members, locals, and return types stay legal.
void rule_vector_payload(const FileContext& ctx, const std::vector<Token>& code,
                         std::vector<Finding>& out) {
  auto ident = [&](std::size_t j, const char* text) {
    return j < code.size() && code[j].kind == Tok::kIdent && code[j].text == text;
  };
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (!is_punct(code[i], "(") && !is_punct(code[i], ",")) continue;
    std::size_t j = i + 1;
    if (ident(j, "const")) ++j;
    if (ident(j, "std") && j + 1 < code.size() && is_punct(code[j + 1], "::")) {
      j += 2;
    }
    if (!ident(j, "vector") || j + 1 >= code.size() ||
        !is_punct(code[j + 1], "<")) {
      continue;
    }
    const int line = code[j].line;
    // Walk the template argument list; the element type must be a byte.
    bool byte_element = false;
    int depth = 1;
    std::size_t k = j + 2;
    for (; k < code.size() && depth > 0; ++k) {
      const Token& u = code[k];
      if (u.kind == Tok::kIdent &&
          (u.text == "uint8_t" || u.text == "byte" || u.text == "char")) {
        byte_element = true;
      } else if (u.kind == Tok::kPunct) {
        if (u.text == "<") ++depth;
        else if (u.text == ">") --depth;
        else if (u.text == ">>") depth -= 2;
        else if (u.text == ";") break;
      }
    }
    if (!byte_element || depth > 0) continue;
    if (k < code.size() && (is_punct(code[k], "&") || is_punct(code[k], "&&"))) {
      ++k;
    }
    // Parameter, not a call or brace-init: next is the parameter name, a
    // ',' starting the next parameter, or the ')' closing an unnamed one.
    if (k >= code.size()) continue;
    const Token& next = code[k];
    const bool parameter = next.kind == Tok::kIdent || is_punct(next, ",") ||
                           is_punct(next, ")") || is_punct(next, "=");
    if (!parameter) continue;
    add(out, ctx, "zerocopy-vector-payload", line,
        "std::vector<std::uint8_t> payload parameter in src/net: the "
        "zero-copy ingest contract is span-in (std::span<const "
        "std::uint8_t>); an owning-vector signature forces every mmap'd "
        "caller to copy");
  }
}

// ---------------------------------------------------------------------------
// zerocopy-owning-packet
// ---------------------------------------------------------------------------

/// src/analysis takes frames only as net::FrameView: every caller — an
/// mmap'd capture, the daemon's merge queues, a lane's staged batch — holds
/// the bytes already, so an owning-packet signature or member there means a
/// copy per frame. Any mention of the type in code is flagged; comments are
/// not.
void rule_owning_packet(const FileContext& ctx, const std::vector<Token>& code,
                        std::vector<Finding>& out) {
  for (const Token& t : code) {
    if (t.kind != Tok::kIdent || t.text != "CapturedPacket") continue;
    add(out, ctx, "zerocopy-owning-packet", t.line,
        "net::CapturedPacket in src/analysis: the analysis layer takes "
        "std::span<const net::FrameView>; a frame that must outlive its "
        "call waits in a net::FrameQueue");
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"determinism-unordered-container",
       "no std::unordered_* containers in src/ (iteration order feeds "
       "reports/checkpoints)"},
      {"determinism-pointer-key",
       "no pointer-keyed std::map/std::set in src/ (address order varies "
       "across runs)"},
      {"determinism-unseeded-rng",
       "no rand()/std::random_device/time(nullptr)/std:: engines outside "
       "tests/ (use seeded util/rng.hpp)"},
      {"seq15-raw-arith",
       "no raw `% 32768` / `& 0x7fff` outside iec104/seq15.hpp"},
      {"decoder-byte-index",
       "no offset subscripts on wire buffers in decoder modules (use "
       "util/bytes)"},
      {"decoder-memcpy",
       "no memcpy/memmove in decoder modules (use util/bytes)"},
      {"netd-raw-socket",
       "no raw blocking socket calls (::accept/::recv/epoll_* ...) outside "
       "src/netd (use the reactor/IngestServer/FleetClient); inside netd "
       "and for ::rename/::fsync anywhere, go through faultinject::SysOps "
       "(only sysfault.cpp/RealSysOps touches the kernel directly)"},
      {"zerocopy-vector-payload",
       "no std::vector<std::uint8_t> payload parameters in src/net (decode "
       "paths are span-only; owning buffers stay behind the seam)"},
      {"zerocopy-owning-packet",
       "no net::CapturedPacket in src/analysis (the analysis layer takes "
       "FrameViews; frames that must wait are queued as bytes)"},
      {"layering-order",
       "module includes must follow the ranked DAG (util -> net -> decoders "
       "-> analysis -> core)"},
      {"layering-cycle", "the file-level include graph must be acyclic"},
      {"layering-unranked",
       "every src/ module must have a rank in the layer order"},
  };
  return kCatalog;
}

bool is_known_rule(const std::string& id) {
  const auto& catalog = rule_catalog();
  return std::any_of(catalog.begin(), catalog.end(),
                     [&](const RuleInfo& r) { return id == r.id; });
}

void run_token_rules(const FileContext& ctx, const std::vector<Token>& tokens,
                     std::vector<Finding>& out) {
  std::vector<Token> code;
  code.reserve(tokens.size());
  for (const Token& t : tokens) {
    if (t.kind != Tok::kComment && t.kind != Tok::kInclude) code.push_back(t);
  }
  if (ctx.zone == Zone::kSrc) {
    rule_unordered_container(ctx, code, out);
    rule_pointer_key(ctx, code, out);
  }
  if (ctx.zone == Zone::kSrc || ctx.zone == Zone::kBench ||
      ctx.zone == Zone::kExamples) {
    rule_unseeded_rng(ctx, code, out);
  }
  rule_seq15(ctx, code, out);
  if (is_decoder_module(ctx)) {
    rule_decoder_bytes(ctx, code, out);
  }
  if (ctx.zone == Zone::kSrc && ctx.module == "net") {
    rule_vector_payload(ctx, code, out);
  }
  if (ctx.zone == Zone::kSrc && ctx.module == "analysis") {
    rule_owning_packet(ctx, code, out);
  }
  if (ctx.zone == Zone::kSrc || ctx.zone == Zone::kBench ||
      ctx.zone == Zone::kExamples) {
    // Inside src/netd the rule switches to its shim-enforcement form
    // (data-plane syscalls must go through faultinject::SysOps).
    rule_raw_socket(ctx, code, out);
  }
}

}  // namespace uncharted::lint
