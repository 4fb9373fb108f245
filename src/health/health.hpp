// Self-healing supervision for the live-ingest daemon.
//
// Three pieces, all pure logic (no sockets, no threads, no wall clock of
// their own — time is injected so every stall scenario replays exactly):
//
//   Heartbeats   Subsystems publish cheap monotonic progress counters
//                (reactor ticks, per-lane packets ingested, watermark
//                frames released, checkpoints written, queries served)
//                plus a "demand" hint — how much work is pending. A
//                counter that stops advancing while demand is nonzero is
//                a stall; a counter that stops because there is nothing
//                to do is just quiet.
//   Watchdogs    Per-subsystem deadline rules evaluated on the caller's
//                cadence (the daemon's reactor tick; a fake clock in
//                tests). A stall past the deadline emits one StallEvent
//                carrying the next rung of the subsystem's recovery
//                ladder, then rearms for a full deadline so recovery has
//                time to take before escalation.
//   Ladder +     Each subsystem names its graduated recovery actions
//   breaker      (condemn stream → restart lane from checkpoint →
//                restart checkpoint writer → controlled self-terminate).
//                The rung escalates while the stall persists and resets
//                when progress resumes. A crash-loop circuit breaker
//                bounds attempts per sliding window: when it opens, the
//                subsystem is marked failed and recovery stops — a
//                degraded-but-honest daemon beats a flapping one.
//
// Every recovery attempt lands in a ledger rendered into the `health`
// query JSON, so a months-long capture campaign can be audited after the
// fact: what stalled, when, what the daemon did about it, and whether it
// worked.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace uncharted::health {

/// Monotonic clock in seconds, injectable so watchdog tests run entirely
/// on virtual time. The default (empty) clock reads steady_clock.
using Clock = std::function<double()>;

/// Exit code of the recovery ladder's final rung: the daemon terminates
/// itself so a process supervisor restarts it into `--restore`. Distinct
/// from the 0/1/2/3 analysis contract and from 42 (simulated crash).
inline constexpr int kRecoveryExitCode = 4;

enum class State : std::uint8_t {
  kHealthy,     ///< progress advancing, or no demand
  kStalled,     ///< deadline exceeded with pending demand
  kRecovering,  ///< a recovery action ran; waiting for progress to resume
  kFailed,      ///< breaker open: recovery stopped, degradation is sticky
};
const char* state_name(State s);

/// Recovery actions, cheapest first. The registry only *selects* them;
/// executing is the daemon's job (the registry stays I/O-free).
enum class Action : std::uint8_t {
  kObserve,            ///< record the stall; nothing to restart (late tick)
  kCondemnStream,      ///< evict the merge laggard on the severity ladder
  kRestartLane,        ///< quarantine-restart from the last checkpoint
  kRestartCheckpoint,  ///< reset the checkpoint writer and retry now
  kSelfTerminate,      ///< exit kRecoveryExitCode for a supervisor restart
};
const char* action_name(Action a);

struct WatchdogConfig {
  /// No progress for this long while demand is pending = stalled.
  /// 0 disables the watchdog (the heartbeat still shows in the JSON).
  double deadline_s = 0.0;
  /// Escalation order. Empty behaves as a single kObserve rung.
  std::vector<Action> ladder;
};

struct BreakerConfig {
  /// Recovery attempts allowed per subsystem inside the window before the
  /// breaker opens (0 = never opens).
  std::uint32_t max_recoveries = 6;
  /// Sliding attempt window (<= 0 counts over the whole run).
  double window_s = 120.0;
};

/// One recovery attempt, as recorded for the health JSON and stderr.
struct LedgerEntry {
  double t_s = 0.0;  ///< registry-relative time of the attempt
  std::string subsystem;
  Action action = Action::kObserve;
  bool ok = false;
  std::string detail;
};

/// One watchdog firing: the subsystem, how long it has been stuck, and
/// the ladder rung the caller should execute now.
struct StallEvent {
  std::string subsystem;
  double stalled_for_s = 0.0;
  Action action = Action::kObserve;
};

class Registry {
 public:
  explicit Registry(Clock clock = {});

  void configure_breaker(BreakerConfig breaker) { breaker_ = breaker; }

  /// Registers a subsystem. Re-adding an existing name replaces its
  /// watchdog config but keeps its history (recoveries, ledger).
  void add(const std::string& name, WatchdogConfig config);

  /// Unregisters a subsystem (its ledger entries stay).
  void remove(const std::string& name) { subs_.erase(name); }

  /// Publishes the subsystem's monotonic progress counter. Any advance
  /// restarts the watchdog deadline and, if the subsystem was stalled or
  /// recovering, returns it to healthy (resetting the ladder rung).
  void publish(const std::string& name, std::uint64_t progress);

  /// Pending-work hint. While zero the watchdog never fires and the
  /// deadline clock stays parked: an idle subsystem is not a stalled one.
  void set_demand(const std::string& name, std::uint64_t pending);

  /// Evaluates every watchdog at the injected clock's current time.
  /// At most one event per stalled subsystem per call; firing rearms that
  /// subsystem's deadline so the chosen recovery gets a full period to
  /// take effect before the ladder escalates.
  std::vector<StallEvent> evaluate();

  /// Records the outcome of a recovery attempt: ledger entry, recovery
  /// counters, breaker accounting, rung escalation. Call once per
  /// StallEvent acted on (including kObserve no-ops).
  void record_recovery(const std::string& name, Action action, bool ok,
                       const std::string& detail);

  State state(const std::string& name) const;
  bool breaker_open(const std::string& name) const;
  std::uint64_t recoveries(const std::string& name) const;
  std::uint64_t total_recoveries() const { return total_recoveries_; }
  const std::vector<LedgerEntry>& ledger() const { return ledger_; }

  /// Seconds since the registry was constructed, per the injected clock.
  double now() const;

  /// Deterministic JSON: per-subsystem state / progress / demand /
  /// recovery count / breaker flag, then the full recovery ledger. The
  /// payload of the query socket's `health` command.
  std::string to_json() const;

 private:
  struct Subsystem {
    WatchdogConfig config;
    State state = State::kHealthy;
    std::uint64_t progress = 0;
    std::uint64_t demand = 0;
    double last_progress_t = 0.0;  ///< when progress last advanced (or idle)
    std::size_t rung = 0;          ///< ladder escalation level
    std::uint64_t recoveries = 0;
    std::deque<double> attempts;   ///< attempt times, for the breaker window
  };

  bool breaker_open_at(const Subsystem& sub, double now) const;

  Clock clock_;
  double t0_ = 0.0;
  BreakerConfig breaker_;
  std::map<std::string, Subsystem> subs_;
  std::vector<LedgerEntry> ledger_;
  std::uint64_t total_recoveries_ = 0;
};

}  // namespace uncharted::health
