// FleetClient: a fleet of tapstream replay connections over one Reactor.
//
// Each ReplayStream owns one slice of a capture (one endpoint-pair's
// frames, time-sorted) and replays it to an IngestServer over its own TCP
// connection: connect, Hello, skip the acked resume cursor, send records
// (paced against capture timestamps when pace > 0), Fin, wait for FinAck.
// A paced stream whose next record is not yet due sends a Progress
// promise carrying that record's timestamp, so the server's merge does
// not wait on it while it is silent.
//
// The client is deliberately unkillable in the ways the daemon must
// tolerate being killed: busy acks, evictions, resets and refused
// connects all funnel into seeded-backoff reconnects that resume from the
// server's cursor, so a benign stream completes losslessly through
// admission control, shedding, and daemon crash-restore. `churn`
// additionally injects deliberate mid-stream disconnects, and the two
// hostile modes impersonate the attackers the eviction ladder must catch:
//
//   kGarbage     sends non-protocol bytes instead of a Hello
//   kSlowLoris   completes the handshake, then leaves a record forever
//                partial (the transport twin of kSlowlorisDribble)
//
// With `linger` set, streams that already got their FinAck periodically
// reconnect and re-offer the stream: a daemon restored from a checkpoint
// older than the FinAck answers with a rewound cursor and receives the
// tail again. The soak harness runs lingering fleets across daemon kills
// and stops them once the final report is on disk.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faultinject/sysfault.hpp"
#include "net/pcap.hpp"
#include "netd/reactor.hpp"
#include "netd/wire.hpp"
#include "util/expected.hpp"
#include "util/rng.hpp"

namespace uncharted::netd {

enum class ReplayMode : std::uint8_t {
  kBenign = 0,
  kGarbage = 1,
  kSlowLoris = 2,
};

struct ReplayStream {
  std::uint64_t id = 0;
  ReplayMode mode = ReplayMode::kBenign;
  std::vector<net::CapturedPacket> frames;
};

struct FleetConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Replay pacing: capture time divided by this factor maps to wall time
  /// (1.0 = real time, 10.0 = 10x faster). <= 0 sends at full speed.
  double pace = 0.0;
  /// Probability per benign stream of one deliberate mid-stream
  /// disconnect+resume (seeded; exercises reconnect churn).
  double churn = 0.0;
  std::uint64_t seed = 0x5ca1ab1eULL;
  /// Reconnect backoff after a failed/refused/evicted connection.
  double retry_initial_s = 0.05;
  double retry_max_s = 2.0;
  /// Give up on a stream after this long without progress.
  double retry_for_s = 60.0;
  /// Keep re-offering finished streams (see header comment).
  bool linger = false;
  double linger_recheck_s = 1.0;
  /// Syscall surface for stream I/O (nullptr = the real kernel).
  faultinject::SysOps* sys = nullptr;
};

struct FleetStats {
  std::uint64_t connects_attempted = 0;
  std::uint64_t busy_retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t finished_streams = 0;
  std::uint64_t failed_streams = 0;
  std::uint64_t hostile_closed = 0;  ///< hostile-mode conns the server killed
  std::uint64_t linger_rechecks = 0;
};

class FleetClient {
 public:
  FleetClient(Reactor& reactor, FleetConfig config,
              std::vector<ReplayStream> streams);
  ~FleetClient();

  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  /// Kicks off every stream's connection. Drive the reactor afterwards.
  void start();

  /// Every stream has finished (FinAck / server-closed hostile) or given
  /// up. Lingering rechecks do not un-finish a stream.
  bool all_done() const;
  /// All benign streams finished and none failed.
  bool all_benign_ok() const;

  const FleetStats& stats() const { return stats_; }

 private:
  enum class Phase : std::uint8_t {
    kIdle,        ///< waiting for a retry/linger timer
    kConnecting,  ///< connect() in flight
    kAwaitAck,    ///< hello sent
    kSending,
    kAwaitFinAck,
    kDone,
    kFailed,
  };

  struct StreamState {
    ReplayStream spec;
    Phase phase = Phase::kIdle;
    int fd = -1;
    std::uint64_t next_frame = 0;
    /// Last progress promise sent on this connection (0 = none; a promise
    /// of 0 would say nothing anyway).
    Timestamp promised_ts = 0;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::vector<std::uint8_t> in;
    double backoff_s = 0.0;
    MonoTime first_fail{};
    bool failing = false;
    std::uint64_t churn_at = 0;
    bool churn_armed = false;
    std::uint64_t pace_timer = 0;
    bool pace_timer_armed = false;
    bool counted_done = false;
    bool loris_sent = false;
  };

  void connect_stream(std::size_t idx);
  void on_event(std::size_t idx, std::uint32_t events);
  void on_connected(std::size_t idx);
  void on_readable(std::size_t idx);
  bool handle_ack(std::size_t idx, const wire::HelloAck& ack);
  /// Appends as many due records as allowed to the out buffer; when
  /// pacing, promises the next one's timestamp and arms its pace timer.
  void pump_send(std::size_t idx);
  void append_frame(StreamState& st);
  void flush_out(std::size_t idx);
  void close_fd(std::size_t idx);
  /// Connection lost / refused / busy: backoff and retry, or give up.
  void retry_later(std::size_t idx, bool count_reconnect);
  void mark_done(std::size_t idx);
  void mark_failed(std::size_t idx);
  void on_linger_tick();
  MonoTime deadline_for(Timestamp ts) const;

  Reactor& reactor_;
  FleetConfig config_;
  faultinject::SysOps& sys_;
  std::vector<StreamState> streams_;
  Rng rng_;
  Timestamp epoch_ts_ = 0;  ///< min frame ts across the fleet
  MonoTime wall_epoch_{};
  bool started_ = false;
  FleetStats stats_;
};

/// Fetches the daemon's current report JSON over a blocking query
/// connection (Hello kind=kQuery). Used by `iec104_fleet --query` and the
/// tests; independent of any FleetClient.
Result<std::string> fetch_report(const std::string& host, std::uint16_t port,
                                 double timeout_s = 10.0,
                                 faultinject::SysOps* sys = nullptr);

/// Same transport, Hello kind=kHealth: fetches the supervision registry's
/// health JSON (per-subsystem state, recovery counts, recovery ledger).
/// Used by `iec104_fleet --health` and the stall post-mortem artifacts.
Result<std::string> fetch_health(const std::string& host, std::uint16_t port,
                                 double timeout_s = 10.0,
                                 faultinject::SysOps* sys = nullptr);

}  // namespace uncharted::netd
