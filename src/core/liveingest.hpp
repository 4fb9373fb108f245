// LiveIngestDaemon: the always-on composition of IngestServer and
// StreamingAnalyzer.
//
// The IngestServer releases live frames in one deterministic global order;
// this class feeds them synchronously into a StreamingAnalyzer and owns
// the pieces neither side can own alone:
//
//   Composed checkpoint   One atomic v3-container snapshot holding the
//                         server's release cursors AND the analyzer state.
//                         Because the sink is synchronous, the two halves
//                         are always mutually consistent: a restore resumes
//                         the analyzer exactly where the cursors say the
//                         streams are, and cursor-based client resume
//                         re-sends everything newer. SIGKILL at any point
//                         costs at most one checkpoint interval of
//                         re-sending — never a divergent report.
//   Pressure coupling     The analyzer's ResourceBudgets enforcement
//                         (ResourcePressure deltas) raises the server's
//                         pressure level, shrinking the ingest buffer
//                         budget so shedding starts before the analyzer
//                         is forced to evict its own state.
//   Live report queries   report_json() renders the current report
//                         without spending the live analyzer:
//                         report_snapshot() copies each lane's builder
//                         state in memory and runs the full §6 analysis
//                         on the copy, so a query costs time in
//                         proportion to the records held. It carries the
//                         same live-ingest warnings as finalize().
#pragma once

#include <memory>
#include <string>

#include "core/streaming.hpp"
#include "health/health.hpp"
#include "netd/server.hpp"

namespace uncharted::core {

/// Deadlines and cadence for the daemon's health watchdogs. Defaults are
/// deliberately generous: an overloaded-but-moving daemon must never trip
/// them (the kill/restore soaks assert byte-identity with watchdogs on).
/// Setting a deadline to 0 disables that watchdog; poll_s = 0 disables
/// the whole supervision subsystem.
struct LiveWatchdogOptions {
  /// Watchdog evaluation cadence (rides its own reactor timer).
  double poll_s = 0.25;
  /// Reactor housekeeping ticks stop advancing (event-loop starvation).
  double reactor_deadline_s = 5.0;
  /// Watermark merge releases nothing while frames sit queued and the
  /// release gate is open (a registered stream went silent).
  double merge_deadline_s = 30.0;
  /// A shard lane ingests nothing while packets queue behind it.
  double lane_deadline_s = 30.0;
  /// Checkpoint writer makes no successful write while one is due.
  /// 0 derives max(3 × checkpoint_every_s, 30 s).
  double checkpoint_deadline_s = 0.0;
  /// Crash-loop circuit breaker across all recovery actions.
  health::BreakerConfig breaker;
  /// Virtual clock for tests (empty = steady_clock).
  health::Clock clock;
};

struct LiveIngestOptions {
  /// Analyzer configuration. `streaming.checkpoint_path` names the
  /// daemon's composed checkpoint; the analyzer itself never writes a file
  /// (the daemon snapshots both halves atomically instead).
  StreamingOptions streaming;
  netd::ServerConfig server;
  /// Composed-checkpoint cadence (0 = only on finalize).
  double checkpoint_every_s = 2.0;
  /// Analyzer-pressure poll cadence (0 = coupling off).
  double pressure_poll_s = 1.0;
  /// Syscall surface for the checkpoint writer (nullptr = the real
  /// kernel). The server's I/O has its own knob in `server.sys`.
  faultinject::SysOps* sys = nullptr;
  /// Self-healing supervision (see LiveWatchdogOptions).
  LiveWatchdogOptions watchdog;
  /// Test-only: wedge the checkpoint writer — every write fails with a
  /// deterministic error. Drives the restart-checkpoint → self-terminate
  /// rungs without needing an fsync storm.
  bool stall_checkpoint = false;
};

class LiveIngestDaemon {
 public:
  LiveIngestDaemon(netd::Reactor& reactor, LiveIngestOptions options);
  ~LiveIngestDaemon();

  LiveIngestDaemon(const LiveIngestDaemon&) = delete;
  LiveIngestDaemon& operator=(const LiveIngestDaemon&) = delete;

  /// Opens the listeners and arms the housekeeping timers. With
  /// `restore` set, first loads the newest valid composed checkpoint;
  /// a missing/corrupt/mismatched checkpoint starts fresh (never fatal).
  Status start(bool restore);

  netd::IngestServer& server() { return *server_; }
  StreamingAnalyzer& analyzer() { return *analyzer_; }

  /// True when start(restore=true) actually resumed from a checkpoint.
  bool restored() const { return restored_; }
  std::uint64_t frames_ingested() const { return analyzer_->packets_consumed(); }

  /// Writes the composed checkpoint now (no-op error when no path set).
  /// Failures are absorbed into the degradation ledger: the counter and
  /// last-error accessors below, and a warning in report_json() until a
  /// later write succeeds. A failed checkpoint never kills the daemon;
  /// the previous on-disk generation stays restorable.
  Status checkpoint_now();

  /// Periodic checkpoint writes that have failed so far.
  std::uint64_t checkpoint_failures() const { return checkpoint_failures_; }
  /// Last checkpoint error, empty once a subsequent write succeeds (the
  /// on-disk snapshot is current again).
  const std::string& checkpoint_error() const { return checkpoint_error_; }

  /// Current report as deterministic JSON (the query-socket payload).
  /// Carries the forced-release warning as finalize() does, and while the
  /// latest checkpoint write has failed, a degradation warning naming the
  /// error — the operator-visible signal that the daemon is serving from
  /// a stale snapshot.
  std::string report_json();

  /// Supervision state as JSON (the `health` query payload): per-subsystem
  /// state / progress / demand / recovery counts, plus the full recovery
  /// ledger. Volatile telemetry — never part of the analysis report.
  std::string health_json() const { return health_.to_json(); }
  const health::Registry& health() const { return health_; }

  /// Set by the recovery ladder's final rung: the daemon wants the process
  /// to exit health::kRecoveryExitCode so a supervisor restarts it into
  /// --restore. The driver's run loop checks this between reactor turns.
  bool terminate_requested() const { return terminate_requested_; }
  const std::string& terminate_reason() const { return terminate_reason_; }

  /// Observes every executed recovery (for stderr telemetry in drivers).
  using RecoveryHook = std::function<void(const health::StallEvent& ev, bool ok,
                                          const std::string& detail)>;
  void set_recovery_hook(RecoveryHook h) { recovery_hook_ = std::move(h); }

  /// Graceful drain: stop accepting, close every connection, write the
  /// final composed checkpoint, and produce the full report (with a
  /// degradation warning when forced releases broke the deterministic
  /// merge). The daemon is spent afterwards.
  AnalysisReport finalize();

 private:
  Status try_restore_composed();
  /// Appends the daemon's own degradation warnings (forced releases, the
  /// last checkpoint error) to `report`. A query says the checkpoint is
  /// being retried; the final report says the write failed.
  void add_live_warnings(AnalysisReport& report, bool final_report) const;
  void rebuild_engine();
  void install_handlers();
  void arm_checkpoint_timer();
  void arm_pressure_timer();
  void arm_watchdog_timer();
  void poll_pressure();
  void register_watchdogs();
  void poll_watchdogs();
  void execute_recovery(const health::StallEvent& ev);
  /// kRestartLane: tear down the server and analyzer and rebuild both from
  /// the last good composed checkpoint (fresh when none), on the same
  /// port. Clients resume from the restored cursors — the PR-7 kill/
  /// restore contract, executed in-process.
  Status recover_from_checkpoint(const std::string& why);

  netd::Reactor& reactor_;
  LiveIngestOptions options_;
  std::string checkpoint_path_;
  std::unique_ptr<StreamingAnalyzer> analyzer_;
  std::unique_ptr<netd::IngestServer> server_;
  bool restored_ = false;
  bool finalized_ = false;
  std::uint64_t checkpoint_timer_ = 0;
  bool checkpoint_timer_armed_ = false;
  std::uint64_t pressure_timer_ = 0;
  bool pressure_timer_armed_ = false;
  std::uint64_t watchdog_timer_ = 0;
  bool watchdog_timer_armed_ = false;
  analysis::ResourcePressure last_pressure_;
  int pressure_level_ = 0;
  int calm_polls_ = 0;
  std::uint64_t checkpoint_failures_ = 0;
  std::uint64_t checkpoint_successes_ = 0;
  std::string checkpoint_error_;
  health::Registry health_;
  RecoveryHook recovery_hook_;
  bool terminate_requested_ = false;
  std::string terminate_reason_;
};

}  // namespace uncharted::core
