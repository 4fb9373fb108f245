// Tolerant IEC 104 stream parser — the paper's core tool (§6.1).
//
// Standard parsers (Wireshark, SCAPY's contrib module) flag traffic from
// devices that kept IEC 101 legacy addressing after their TCP/IP upgrade as
// 100% malformed: O37 used 2-octet IOAs, O53/O58/O28 used a 1-octet COT.
// This parser frames APDUs from a reassembled TCP byte stream and, in
// tolerant mode, tries the legacy codec profiles whenever the standard one
// fails to parse an I-format ASDU *exactly* (consuming all framed bytes).
// Once a profile decodes a stream's ASDUs consistently it is locked in, and
// the stream is reported with the profile that explains it — turning
// "malformed garbage" into readable telemetry plus a compliance finding.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <optional>
#include <vector>

#include "iec104/apdu.hpp"
#include "util/timebase.hpp"

namespace uncharted::iec104 {

/// Why a byte range failed to parse — the degraded-mode taxonomy. Garbage
/// means the stream lost framing (desync) and the parser had to hunt for
/// the next 0x68; undecodable means a well-framed APDU no profile could
/// explain; truncated-tail means the stream ended mid-frame.
enum class FailureKind {
  kGarbage,        ///< skipped bytes while resynchronizing on 0x68
  kUndecodable,    ///< framed APDU rejected by every candidate profile
  kTruncatedTail,  ///< partial frame left in the buffer at end of stream
};

/// One undecodable byte range.
struct ParseFailure {
  Timestamp ts = 0;
  FailureKind kind = FailureKind::kUndecodable;
  std::string error;
  std::vector<std::uint8_t> raw;  ///< offending bytes (up to the framed APDU)
};

/// Candidate profiles in preference order (standard first).
std::array<CodecProfile, 4> candidate_profiles();

/// Tries every candidate profile against one framed APDU; returns all
/// profiles that decode it exactly. Used for compliance reporting (Fig 7).
std::vector<CodecProfile> detect_profiles(std::span<const std::uint8_t> apdu_bytes);

/// Plausibility score of a decoded ASDU. Different field widths can parse
/// the same bytes "exactly" (a 1-octet-COT reading of a 2-octet-IOA frame
/// consumes the same length), so byte-level success is not enough; the
/// paper's tell-tales — invalid IOA addresses and random-looking
/// measurements — are scored instead. Higher is more plausible.
int asdu_plausibility(const AsduView& asdu, const CodecProfile& profile);

/// Receives each APDU a parser decodes, in stream order. A parser keeps
/// them for apdus()/drain() unless feed() is given a sink of its own; the
/// dataset builder's sink appends each one straight to its record lane.
class ApduSink {
 public:
  virtual void put(const ParsedApdu& apdu) = 0;

 protected:
  ~ApduSink() = default;
};

/// Incremental parser over one TCP stream direction.
class ApduStreamParser {
 public:
  enum class Mode {
    kStrict,    ///< standard profile only; legacy traffic becomes failures
    kTolerant,  ///< fall back to legacy profiles and lock in the winner
  };

  explicit ApduStreamParser(Mode mode = Mode::kTolerant) : mode_(mode) {}

  /// Appends reassembled stream bytes; complete APDUs are parsed out and
  /// kept for apdus(). Partial APDUs stay buffered until the next feed.
  void feed(Timestamp ts, std::span<const std::uint8_t> data);
  /// The same, handing each APDU to `sink` instead of keeping it.
  /// Failures are kept either way.
  void feed(Timestamp ts, std::span<const std::uint8_t> data, ApduSink& sink);

  /// End of stream: a partial frame still buffered becomes a
  /// kTruncatedTail failure. Idempotent; further feeds restart framing.
  void finish(Timestamp ts);

  /// Parsed APDUs in stream order.
  const std::vector<ParsedApdu>& apdus() const { return apdus_; }
  /// Undecodable ranges.
  const std::vector<ParseFailure>& failures() const { return failures_; }

  /// Moves accumulated APDUs and failures out, leaving both lists empty.
  /// Streaming callers drain after every feed so the parser holds only the
  /// partial frame still waiting for bytes — the state a checkpoint must
  /// carry — instead of the whole stream history.
  void drain(std::vector<ParsedApdu>& apdus_out, std::vector<ParseFailure>& failures_out);
  /// Forgets the accumulated failures (a caller that has read failures()).
  void clear_failures() { failures_.clear(); }

  /// Checkpoint serialization. Only the resumable core is saved (mode,
  /// partial-frame buffer, locked profile, counters); drained results are
  /// the caller's to persist. load() requires apdus()/failures() to have
  /// been drained, mirroring the streaming discipline.
  void save(ByteWriter& w) const;
  static Result<ApduStreamParser> load(ByteReader& r);

  /// Arena for parsed-APDU object storage. Runtime configuration, not
  /// state: it is not checkpointed, and the caller must re-set it after
  /// load(). APDUs parsed while an arena is set must not outlive it — the
  /// dataset keeps its lane arenas alive for exactly this reason. With no
  /// arena set (null), the parser stores objects in a scratch arena of its
  /// own, which reset_stream() recycles: its APDUs then live until the
  /// next reset_stream() or the parser's end.
  void set_arena(std::pmr::memory_resource* arena) { arena_ = arena; }

  /// Times the parser lost framing and hunted for the next start byte.
  std::uint64_t resyncs() const { return resyncs_; }
  /// Bytes skipped during those hunts.
  std::uint64_t garbage_bytes() const { return garbage_bytes_; }
  /// Bytes abandoned as a partial frame by finish().
  std::uint64_t truncated_tail_bytes() const { return truncated_tail_bytes_; }

  /// The profile locked in for this stream after the first non-standard
  /// success (nullopt while the stream looks standard).
  std::optional<CodecProfile> locked_profile() const { return locked_; }

  /// Bytes currently buffered waiting for a complete frame.
  std::size_t buffered_bytes() const { return buffer_.size(); }

  /// Total I-format APDUs whose ASDU parsed only under a legacy profile.
  std::uint64_t non_compliant_count() const { return non_compliant_; }

  /// Resets per-stream state (framing buffer, locked profile, counters) so
  /// a per-packet caller can reuse one parser — and the capacity of its
  /// result vectors — instead of constructing a fresh parser per packet.
  /// Results must have been drained first; the scratch arena (no arena
  /// set) is recycled.
  void reset_stream() {
    buffer_.clear();
    locked_.reset();
    non_compliant_ = 0;
    resyncs_ = 0;
    garbage_bytes_ = 0;
    truncated_tail_bytes_ = 0;
    scratch_.recycle();
  }

 private:
  /// Object storage of a parser with no arena set. A copied parser starts
  /// with its own (empty) scratch; a moved one takes it along, so APDUs
  /// already parsed stay valid.
  class ScratchArena {
   public:
    ScratchArena() = default;
    ScratchArena(const ScratchArena&) {}
    ScratchArena& operator=(const ScratchArena&) { return *this; }
    ScratchArena(ScratchArena&&) noexcept = default;
    ScratchArena& operator=(ScratchArena&&) noexcept = default;
    std::pmr::memory_resource* get();
    void recycle();

   private:
    struct Storage {
      /// Room for a packet's objects; a larger burst spills to the heap
      /// until the next recycle().
      alignas(std::max_align_t) std::array<std::byte, 16384> initial;
      std::pmr::monotonic_buffer_resource resource{initial.data(), initial.size()};
    };
    std::unique_ptr<Storage> storage_;
  };

  std::pmr::memory_resource* arena() { return arena_ != nullptr ? arena_ : scratch_.get(); }
  void parse_buffer(Timestamp ts, ApduSink& sink);
  /// Parses frames from `data` without buffering; returns bytes consumed.
  /// The zero-copy core of feed(): a trailing partial frame is left for
  /// the caller to buffer.
  std::size_t parse_span(Timestamp ts, std::span<const std::uint8_t> data, ApduSink& sink);
  /// Attempts one framed APDU (start byte already verified).
  bool try_parse_frame(std::span<const std::uint8_t> frame, ApduSink& sink);
  /// The legacy-profile vote for a frame neither fast path explains:
  /// fills `out` and returns the winning profile, or nullopt.
  std::optional<CodecProfile> vote(std::span<const std::uint8_t> frame, ParsedApdu& out);

  Mode mode_;
  std::pmr::memory_resource* arena_ = nullptr;
  ScratchArena scratch_;
  std::vector<std::uint8_t> buffer_;
  std::vector<ParsedApdu> apdus_;
  std::vector<ParseFailure> failures_;
  std::optional<CodecProfile> locked_;
  std::uint64_t non_compliant_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t garbage_bytes_ = 0;
  std::uint64_t truncated_tail_bytes_ = 0;
};

}  // namespace uncharted::iec104
