// IngestServer: the live front door of the always-on analyzer.
//
// Accepts tapstream connections (netd/wire.hpp) from thousands of fleet
// clients, merges their per-stream frame sequences into ONE deterministic
// global order, and releases frames to a sink (the daemon's
// StreamingAnalyzer) — with the robustness machinery a long-running
// listener needs layered on top:
//
//   Admission control   hard connection cap (excess greeted with a kBusy
//                       ack and closed) and a token-bucket accept-rate
//                       limit (excess left in the kernel backlog).
//   Hostile eviction    garbage hellos, oversized records, unknown
//                       markers, messages after Fin, per-stream timestamp
//                       and promise regressions and slow-loris dribble (a
//                       partial message older than the read timeout)
//                       evict the connection with an iec104::Severity
//                       verdict — the same ladder the conformance
//                       machine uses for in-protocol abuse.
//   Idle eviction       a silent connection past the idle timeout is
//                       closed (kInfo; the client resumes via its cursor).
//   Backpressure        per-connection read pausing once a stream buffers
//                       too far ahead of the release watermark, a global
//                       buffered-bytes budget, overload shedding (drop the
//                       fattest stream's buffer and close it — lossless,
//                       because resume re-sends), and, as a last resort,
//                       forced release that degrades determinism to
//                       sampling instead of OOMing.
//
// Deterministic watermark merge. Every queued frame carries the key
// (capture_ts, stream_id, seq). Each registered unfinished stream holds a
// lower bound on every key it may still enqueue: the maximum of its last
// record's key and its last progress promise (wire::Marker::kProgress),
// so a silent stream that promised "nothing before T" gates nothing below
// T. Frames are released only while the smallest queued key is below the
// smallest bound. With `expect_streams` set, nothing is released until
// all expected streams have said hello, making the released sequence the
// unique sorted order of the fleet's frames — independent of socket
// interleaving, reconnect churn, and daemon crash/restore. That is the
// property the kill/restore soak's byte-identical-report acceptance test
// rests on.
//
// The merge costs no heap allocation per frame. A stream queues its
// frames as bytes: a FIFO of {ts, original_length, len, offset} entries
// over one byte buffer. The smallest bound and the smallest queue head
// are the tops of two indexed min-heaps over the streams, and each
// stream knows its slot in both, so a key change re-sifts in place. The
// sink receives a net::FrameView into the stream's buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "faultinject/sysfault.hpp"
#include "iec104/conformance.hpp"
#include "net/pcap.hpp"
#include "netd/reactor.hpp"
#include "netd/wire.hpp"
#include "util/bytes.hpp"
#include "util/expected.hpp"

namespace uncharted::netd {

struct ServerConfig {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see IngestServer::port()
  /// Optional AF_UNIX listener serving report queries locally.
  std::string query_sock_path;

  /// Admission: hard cap on simultaneous connections; extras get a kBusy
  /// ack and are closed.
  std::size_t max_connections = 12000;
  /// Token-bucket accept-rate limit (accepts/second, 0 = unlimited).
  double accept_rate = 0.0;
  double accept_burst = 64.0;

  /// No complete Hello within this window after accept: evicted (kWarn).
  double handshake_timeout_s = 10.0;
  /// A partial message outstanding longer than this is a slow-loris
  /// dribble: evicted (kHostile), no matter how slowly bytes trickle in.
  double read_timeout_s = 30.0;
  /// A connection with no traffic at all for this long is closed (kInfo);
  /// the client transparently resumes from its cursor.
  double idle_timeout_s = 120.0;

  /// Global budget for buffered (received but unreleased) frame bytes.
  std::size_t max_buffered_bytes = 64u << 20;
  /// Reads from one stream pause once it buffers this far ahead.
  std::size_t per_conn_buffered_bytes = 1u << 20;
  /// When the global budget is exhausted even after shedding, release
  /// frames past the watermark (sampling: deterministic merge is lost but
  /// memory stays bounded). Disable where byte-identity is asserted.
  bool allow_forced_release = true;

  /// Release gate: hold all frames until this many distinct stream ids
  /// have registered (0 = release against currently known streams only).
  std::uint64_t expect_streams = 0;

  /// Housekeeping cadence (timeout scans, token refill).
  double tick_s = 0.25;

  /// Syscall surface for all connection I/O (nullptr = the real kernel).
  /// The chaos soak passes a faultinject::FaultySysOps here.
  faultinject::SysOps* sys = nullptr;
};

/// Why a connection was closed by the server, with a severity verdict on
/// the conformance ladder: kInfo = operational (shed/finished), kWarn =
/// suspicious (idle, no hello), kHostile = protocol abuse.
struct EvictionRecord {
  std::uint64_t stream_id = 0;  ///< 0 when the peer never identified itself
  std::string remote;
  iec104::Severity severity = iec104::Severity::kInfo;
  std::string reason;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_busy = 0;
  std::uint64_t rate_deferred_polls = 0;  ///< accept rounds stopped by the bucket
  /// Accept failed with EMFILE/ENFILE: the listener was muted until the
  /// next tick instead of spinning on level-triggered readiness.
  std::uint64_t accept_fd_exhausted = 0;
  std::uint64_t hellos = 0;
  std::uint64_t resumed_hellos = 0;  ///< hellos answered with a nonzero cursor
  std::uint64_t frames_received = 0;
  std::uint64_t frames_released = 0;
  /// Always 0: the wire carries no per-record sequence, and a resumed
  /// stream restarts at the server's cursor, so no frame arrives twice.
  std::uint64_t duplicate_frames_dropped = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t evicted_hostile = 0;
  std::uint64_t evicted_warn = 0;
  std::uint64_t shed_connections = 0;
  std::uint64_t forced_releases = 0;
  /// Streams condemned as watermark laggards: every frame such a stream
  /// had yet to send is lost to the report.
  std::uint64_t condemned_streams = 0;
  std::uint64_t paused_reads = 0;
  std::uint64_t queries_served = 0;
  std::uint64_t streams_finished = 0;
  /// Housekeeping ticks completed — the reactor-liveness heartbeat the
  /// health watchdog consumes.
  std::uint64_t ticks = 0;
  std::size_t connections = 0;       ///< current
  std::size_t peak_connections = 0;
  std::size_t queued_bytes = 0;      ///< current
  std::size_t peak_queued_bytes = 0;
};

class IngestServer {
 public:
  /// Frames released in deterministic global order land here. The view
  /// points into the stream's queue buffer and is valid only until the
  /// sink returns: a sink that keeps a frame copies it.
  using FrameSink =
      std::function<void(std::uint64_t stream_id, const net::FrameView&)>;
  /// Produces the current report JSON for a query connection. Also used
  /// for kHealth hellos via set_health_handler.
  using QueryHandler = std::function<std::string()>;

  IngestServer(Reactor& reactor, ServerConfig config, FrameSink sink);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Opens the TCP listener (and the unix query listener if configured).
  Status start();
  /// The actually bound TCP port (resolves port=0).
  std::uint16_t port() const { return bound_port_; }

  void set_query_handler(QueryHandler h) { query_handler_ = std::move(h); }
  /// Serves `health` hellos (wire::HelloKind::kHealth) with supervision
  /// JSON. Unset, a health query is answered kBusy like a report query.
  void set_health_handler(QueryHandler h) { health_handler_ = std::move(h); }

  /// Graceful-drain support: refuse new connections but keep serving the
  /// established ones.
  void stop_accepting();
  /// Closes every connection and both listeners. Buffered-but-unreleased
  /// frames are dropped (clients re-send them on resume).
  void close_all();

  /// Raises/clears external memory pressure (from ResourceBudgets): level
  /// 1 halves the buffered-bytes budget, level 2 quarters it, triggering
  /// earlier shedding.
  void set_pressure_level(int level);

  std::uint64_t streams_registered() const { return streams_.size(); }
  std::uint64_t streams_finished() const { return stats_.streams_finished; }
  /// True when expect_streams > 0 and every expected stream has finished.
  bool all_expected_finished() const;

  /// True once the watermark release gate is open (every expected stream
  /// has said hello, or no expectation was configured). While closed,
  /// queued frames waiting on absent peers are normal, not a merge stall.
  bool release_gate_open() const;

  /// Health-watchdog recovery, first rung of the ladder: the merge has
  /// stopped while traffic is queued, so condemn the stream holding the
  /// minimum watermark bound — evict its connection (kWarn) and finish
  /// the stream so its bound stops gating honest peers. Returns the
  /// condemned stream id, or 0 when no stream is actually gating (empty
  /// bounds, the laggard still has queued frames, or the gate is closed).
  std::uint64_t condemn_watermark_laggard(const std::string& reason);

  /// Serializes per-stream release cursors (the netd half of the daemon's
  /// composed checkpoint). Only durable fields: the forced releases behind
  /// the cursors, and per stream its cursor, released_ts, and whether it
  /// finished or was condemned.
  void save_cursors(ByteWriter& w) const;
  /// Restores cursors into an empty server (call before start()), with the
  /// forced-release count, and recounts the condemned streams, so both
  /// losses survive a restart. A release forced after the checkpoint is
  /// rewound with the cursors, and is not counted.
  Status load_cursors(ByteReader& r);

  const ServerStats& stats() const { return stats_; }
  const std::vector<EvictionRecord>& evictions() const { return evictions_; }
  /// Renders the volatile operational counters (stderr telemetry; never
  /// part of the report JSON, which must stay run-invariant).
  std::string stats_line() const;

 private:
  /// (capture_ts, stream_id, seq): the deterministic global frame order.
  using Key = std::tuple<Timestamp, std::uint64_t, std::uint64_t>;
  /// Heap slot of a stream that is not in that heap.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  struct Stream;

  struct Conn {
    int fd = -1;
    bool unix_peer = false;
    std::string remote;
    std::vector<std::uint8_t> in;
    std::size_t in_off = 0;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    bool got_hello = false;
    bool is_query = false;
    bool close_after_flush = false;
    bool paused = false;
    std::uint64_t stream_id = 0;
    /// The stream this connection feeds, set by an accepted data hello.
    /// streams_ never erases and map nodes are stable, so it stays valid.
    Stream* stream = nullptr;
    MonoTime last_byte{};
    MonoTime last_message{};
  };

  struct Stream {
    std::uint64_t id = 0;
    // Durable (checkpointed):
    std::uint64_t cursor = 0;    ///< frames released to the sink
    Timestamp released_ts = 0;   ///< ts of the last released frame
    bool finished = false;
    bool condemned = false;      ///< finished by condemn_watermark_laggard
    // Volatile:
    int conn_fd = -1;            ///< -1 while disconnected
    std::uint64_t recv_seq = 0;  ///< seq of the next frame to arrive
    Timestamp last_recv_ts = 0;  ///< last record's ts, or a later promise
    net::FrameQueue q;           ///< received, unreleased
    std::size_t q_bytes = 0;
    bool fin_seen = false;
    std::uint64_t fin_total = 0;
    Key bound{};                 ///< key in bounds_ while registered and unfinished
    Key head{};                  ///< key of q's front frame, in heads_ while q is nonempty
    std::size_t bound_slot = kNoSlot;
    std::size_t head_slot = kNoSlot;
  };

  /// Indexed binary min-heap over streams, ordered by the key `KeyOf`.
  /// Each stream stores its position in `SlotOf`, so re-keying a stream
  /// sifts it in place and erasing it needs no search. Keys of different
  /// streams never tie (the stream id is part of the key), so the top is
  /// the same stream an ordered set would put first.
  template <Key Stream::*KeyOf, std::size_t Stream::*SlotOf>
  class StreamHeap {
   public:
    bool empty() const { return heap_.empty(); }
    Stream& top() const { return *heap_.front(); }
    /// Inserts `s` with `key`, or re-keys it in place. A key may move
    /// either way, so the stream sifts up and then down.
    void set(Stream& s, const Key& key);
    void erase(Stream& s);

   private:
    void place(std::size_t i, Stream* s);
    /// Moves heap_[i] toward the root past every larger parent; returns
    /// where it settled.
    std::size_t sift_up(std::size_t i);
    void sift_down(std::size_t i);

    std::vector<Stream*> heap_;
  };

  void on_listener_ready();
  void on_unix_listener_ready();
  void accept_loop(int listener_fd, bool unix_peer);
  void on_conn_event(int fd, std::uint32_t events);
  void read_conn(Conn& conn);
  /// Parses complete messages out of conn.in; returns false if the
  /// connection was evicted (and no longer exists).
  bool parse_conn(Conn& conn);
  bool handle_hello(Conn& conn, const wire::Hello& hello);
  /// The stream a data message on `conn` belongs to, or nullptr after
  /// evicting the connection (no stream, or the stream's Fin was seen).
  Stream* open_stream(Conn& conn, const char* what);
  bool handle_record(Conn& conn, const wire::RecordHeader& rec,
                     std::span<const std::uint8_t> payload);
  bool handle_progress(Conn& conn, Timestamp ts);
  bool handle_fin(Conn& conn, std::uint64_t total);
  void flush_conn(Conn& conn);
  void queue_bytes(Conn& conn, std::span<const std::uint8_t> bytes);
  void close_conn(int fd);
  void evict(int fd, iec104::Severity severity, const std::string& reason);

  /// Detaches a live connection from its stream: drops buffered frames
  /// and rewinds the bound to the release cursor.
  void detach_stream(Stream& s);
  /// The watermark release loop plus backpressure/shedding maintenance.
  void pump();
  void release_front(Stream& s);
  void finish_stream(Stream& s);
  void shed_until(std::size_t target_bytes);
  void force_release(std::size_t target_bytes);
  void update_pauses();
  std::size_t effective_budget() const;

  void on_tick();
  void refill_tokens();

  Reactor& reactor_;
  ServerConfig config_;
  faultinject::SysOps& sys_;
  FrameSink sink_;
  QueryHandler query_handler_;
  QueryHandler health_handler_;

  int listen_fd_ = -1;
  int unix_listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  bool accepting_ = true;
  std::uint64_t tick_timer_ = 0;
  bool tick_armed_ = false;

  double tokens_ = 0.0;
  MonoTime last_refill_{};

  std::map<int, Conn> conns_;
  std::map<std::uint64_t, Stream> streams_;
  /// Lower bounds of all registered, unfinished streams.
  StreamHeap<&Stream::bound, &Stream::bound_slot> bounds_;
  /// Head (smallest) key of every stream with a nonempty queue.
  StreamHeap<&Stream::head, &Stream::head_slot> heads_;

  int pressure_level_ = 0;
  ServerStats stats_;
  std::vector<EvictionRecord> evictions_;
};

}  // namespace uncharted::netd
