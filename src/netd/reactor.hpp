// Non-blocking socket reactor: the event loop under the live-ingest daemon.
//
// One thread, one readiness loop. On Linux the backend is epoll; a
// portable poll(2) backend exists as a runtime fallback (and as a second
// implementation the tests diff against). Everything the daemon does with
// a socket — accept, read, write, connect — happens through callbacks
// registered here; the unchartedlint rule `netd-raw-socket` enforces that
// no other module touches sockets directly.
//
// The reactor also owns the two non-fd event sources a daemon needs:
//   - one-shot monotonic timers (idle/read timeouts, pacing deadlines,
//     checkpoint cadence), fired in deadline order with deterministic
//     FIFO tie-break;
//   - an async-signal-safe wakeup (self-pipe) so SIGTERM/SIGINT handlers
//     can interrupt a sleeping poll without touching non-reentrant state.
//
// Determinism note: the reactor itself introduces no randomness and no
// unordered containers; fd dispatch order within one poll batch follows
// ascending fd order on both backends so single-threaded in-process tests
// interleave identically run to run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "faultinject/sysfault.hpp"
#include "util/expected.hpp"

// The backends' wait arrays; complete only in reactor.cpp, the one place
// that touches them.
struct epoll_event;
struct pollfd;

namespace uncharted::netd {

/// Readiness bits passed to fd callbacks.
inline constexpr std::uint32_t kEventRead = 0x1;
inline constexpr std::uint32_t kEventWrite = 0x2;
/// Error/hangup: the fd should be torn down by its owner.
inline constexpr std::uint32_t kEventError = 0x4;

enum class Backend { kEpoll, kPoll };

/// Monotonic clock used for every deadline in netd.
using MonoClock = std::chrono::steady_clock;
using MonoTime = MonoClock::time_point;

class Reactor {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using TimerCallback = std::function<void()>;

  /// kEpoll on Linux, kPoll elsewhere.
  static Backend default_backend();

  /// `sys` routes the reactor's waits and wakeup-pipe reads (nullptr =
  /// the real kernel); pass a faultinject::FaultySysOps to chaos-test the
  /// loop itself.
  explicit Reactor(Backend backend = default_backend(),
                   faultinject::SysOps* sys = nullptr);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  Backend backend() const { return backend_; }

  /// Registers `fd` (must already be non-blocking) with an interest mask
  /// of kEventRead/kEventWrite bits. The callback may add/remove fds and
  /// timers freely, including removing its own fd.
  Status add_fd(int fd, std::uint32_t interest, FdCallback cb);

  /// Replaces the interest mask of a registered fd.
  Status set_interest(int fd, std::uint32_t interest);

  /// Unregisters `fd`. The caller still owns (and closes) the fd.
  void remove_fd(int fd);

  /// Number of registered fds (excluding the internal wakeup pipe).
  std::size_t fd_count() const { return fds_.size(); }

  /// Schedules `cb` to run once, `delay_s` from now (clamped at >= 0).
  /// Returns an id usable with cancel_timer.
  std::uint64_t add_timer_after(double delay_s, TimerCallback cb);
  std::uint64_t add_timer_at(MonoTime deadline, TimerCallback cb);
  void cancel_timer(std::uint64_t id);

  /// One poll iteration: waits at most `max_wait_ms` (less if a timer is
  /// due sooner), dispatches ready fds in ascending fd order, then fires
  /// due timers in deadline order. Returns true if any callback ran. A
  /// turn reuses the reactor's wait and ready-list buffers, so it
  /// allocates nothing once they have grown to the fd count.
  bool run_once(int max_wait_ms);

  /// Loops run_once until stop(). `stop()` is safe from any callback.
  void run();
  void stop();
  bool stopped() const { return stopped_; }

  /// Async-signal-safe: writes one byte to the internal self-pipe, waking
  /// a sleeping run_once. The wakeup callback (if set) runs on the loop.
  void notify_from_signal();
  void set_wakeup_callback(TimerCallback cb) { wakeup_cb_ = std::move(cb); }

  /// Makes `fd` non-blocking and close-on-exec (helper for fd owners).
  static Status make_nonblocking(int fd);

 private:
  struct FdEntry {
    std::uint32_t interest = 0;
    FdCallback cb;
  };

  void fire_due_timers();
  int timeout_for(int max_wait_ms) const;

  Backend backend_;
  faultinject::SysOps& sys_;
  int epoll_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  bool stopped_ = false;
  std::map<int, FdEntry> fds_;
  /// (deadline, id) -> callback: fires in deadline order, FIFO on ties.
  std::map<std::pair<MonoTime, std::uint64_t>, TimerCallback> timers_;
  std::uint64_t next_timer_id_ = 1;
  TimerCallback wakeup_cb_;
  /// run_once's buffers, kept across turns. A nested run_once (from a
  /// callback) finds ready_ empty and uses a buffer of its own.
  std::vector<::epoll_event> epoll_events_;
  std::vector<::pollfd> poll_fds_;
  std::vector<std::pair<int, std::uint32_t>> ready_;
};

}  // namespace uncharted::netd
