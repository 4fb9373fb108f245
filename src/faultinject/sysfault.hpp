// Deterministic OS-level fault injection: the syscall twin of fault.hpp.
//
// PR 2's fault layer damages *packets*; this layer damages the *kernel
// contract* underneath the live-ingest daemon. Every data-plane syscall
// the daemon issues — socket reads/writes, accept, readiness waits, and
// the checkpoint writer's open/write/fsync/rename — goes through the
// `SysOps` interface. In production that is `RealSysOps`, a passthrough.
// Under test it is `FaultySysOps`, which replays a seeded `SysFaultPlan`:
// short reads/writes, EINTR/EAGAIN storms, ECONNRESET mid-stream, accept
// failing with EMFILE, delayed readiness, and storage faults (ENOSPC,
// EIO, failed fsync, failed rename) at per-syscall rates with optional
// burst schedules. Same plan + same call sequence == same faults; the
// `SysFaultLog` ledger counts what actually fired, so a soak can assert
// the chaos it asked for really happened.
//
// The retry helpers (`retry_read`/`retry_write`/`retry_recv`/`retry_send`
// /`retry_accept`) are the ONLY place errno handling lives: they absorb
// bounded EINTR storms, classify EAGAIN/EWOULDBLOCK as kWouldBlock, EOF
// as kEof, and everything else as kError with the errno attached. No
// caller hand-rolls an errno loop; the unchartedlint `netd-raw-socket`
// rule enforces that no raw data-plane syscall survives outside this
// file's implementation.
#pragma once

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>

#include "util/rng.hpp"

#if defined(__linux__)
#define UNCHARTED_SYSFAULT_HAVE_EPOLL 1
#else
#define UNCHARTED_SYSFAULT_HAVE_EPOLL 0
#endif

#if UNCHARTED_SYSFAULT_HAVE_EPOLL
struct epoll_event;
#endif

namespace uncharted::faultinject {

/// The daemon's syscall surface. Methods keep the libc contract (-1 +
/// errno on failure) so `FaultySysOps` can impersonate the kernel
/// faithfully; the retry helpers below translate that contract into
/// something callers can consume without touching errno.
class SysOps {
 public:
  virtual ~SysOps() = default;

  // Data plane (sockets, pipes).
  virtual ssize_t read(int fd, void* buf, std::size_t n) = 0;
  virtual ssize_t write(int fd, const void* buf, std::size_t n) = 0;
  virtual ssize_t recv(int fd, void* buf, std::size_t n, int flags) = 0;
  virtual ssize_t send(int fd, const void* buf, std::size_t n, int flags) = 0;
  virtual int accept(int fd, sockaddr* addr, socklen_t* len) = 0;

  // Readiness waits.
  virtual int poll_wait(pollfd* fds, nfds_t nfds, int timeout_ms) = 0;
#if UNCHARTED_SYSFAULT_HAVE_EPOLL
  virtual int epoll_wait(int epfd, epoll_event* events, int maxevents,
                         int timeout_ms) = 0;
#endif

  // Storage plane (checkpoint writer). Fds returned by `open` are tracked
  // by FaultySysOps as storage fds and receive the storage fault classes.
  virtual int open(const char* path, int flags, unsigned mode) = 0;
  virtual int close(int fd) = 0;
  virtual int fsync(int fd) = 0;
  virtual int rename(const char* from, const char* to) = 0;
};

/// Passthrough to the real kernel.
class RealSysOps final : public SysOps {
 public:
  ssize_t read(int fd, void* buf, std::size_t n) override;
  ssize_t write(int fd, const void* buf, std::size_t n) override;
  ssize_t recv(int fd, void* buf, std::size_t n, int flags) override;
  ssize_t send(int fd, const void* buf, std::size_t n, int flags) override;
  int accept(int fd, sockaddr* addr, socklen_t* len) override;
  int poll_wait(pollfd* fds, nfds_t nfds, int timeout_ms) override;
#if UNCHARTED_SYSFAULT_HAVE_EPOLL
  int epoll_wait(int epfd, epoll_event* events, int maxevents,
                 int timeout_ms) override;
#endif
  int open(const char* path, int flags, unsigned mode) override;
  int close(int fd) override;
  int fsync(int fd) override;
  int rename(const char* from, const char* to) override;
};

/// Shared process-wide passthrough instance (the default everywhere a
/// `SysOps*` is left null).
SysOps& real_sys_ops();

/// Per-syscall fault rates plus an optional burst schedule. All rates are
/// independent probabilities in [0, 1]; a fault class with rate 0 never
/// fires. Deterministic: decisions come from `seed` and the op sequence
/// alone.
struct SysFaultPlan {
  std::uint64_t seed = 0x05f0a17ULL;

  // Network plane (sockets, pipes; any fd NOT opened through SysOps::open).
  double eintr_p = 0.0;         ///< op fails with EINTR (signal storm)
  double eagain_p = 0.0;        ///< spurious EAGAIN on a "ready" fd
  double short_read_p = 0.0;    ///< recv/read delivers 1..16 bytes instead
  double short_write_p = 0.0;   ///< send/write takes 1..16 bytes instead
  double conn_reset_p = 0.0;    ///< recv/send fails with ECONNRESET
  double accept_emfile_p = 0.0; ///< accept fails with EMFILE (fd pressure)
  double delayed_ready_p = 0.0; ///< poll/epoll reports nothing ready

  // Storage plane (fds opened through SysOps::open, plus fsync/rename).
  double open_fail_p = 0.0;     ///< open fails with ENOSPC
  double write_enospc_p = 0.0;  ///< write fails with ENOSPC
  double storage_eio_p = 0.0;   ///< read/write fails with EIO
  double fsync_fail_p = 0.0;    ///< fsync fails with EIO
  double rename_fail_p = 0.0;   ///< rename fails with EIO (torn: tmp stays)

  /// Burst schedule: every `burst_period` faultable ops, the following
  /// `burst_len` ops have their rates multiplied by `burst_boost` (capped
  /// at 1.0) — modelling correlated failures (a dying disk, a signal
  /// storm) instead of uniform background noise. Disabled when period is 0.
  std::uint64_t burst_period = 0;
  std::uint64_t burst_len = 0;
  double burst_boost = 1.0;

  /// Network-only faults at `rate` (resets and EMFILE at a fraction of
  /// it), with a burst schedule.
  static SysFaultPlan network(double rate, std::uint64_t seed = 0x05f0a17ULL);
  /// Storage-only faults at `rate`.
  static SysFaultPlan storage(double rate, std::uint64_t seed = 0x05f0a17ULL);
  /// Both planes at once: the compound-soak configuration.
  static SysFaultPlan compound(double rate, std::uint64_t seed = 0x05f0a17ULL);
};

/// Monotone counters of injected faults (FaultLog's syscall twin).
struct SysFaultLog {
  std::uint64_t ops = 0;            ///< faultable ops seen while enabled
  std::uint64_t burst_ops = 0;      ///< ops that ran boosted
  std::uint64_t eintr = 0;
  std::uint64_t spurious_eagain = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t conn_resets = 0;
  std::uint64_t accept_emfile = 0;
  std::uint64_t delayed_ready = 0;
  std::uint64_t open_failures = 0;
  std::uint64_t write_enospc = 0;
  std::uint64_t storage_eio = 0;
  std::uint64_t fsync_failures = 0;
  std::uint64_t rename_failures = 0;

  std::uint64_t total() const {
    return eintr + spurious_eagain + short_reads + short_writes + conn_resets +
           accept_emfile + delayed_ready + open_failures + write_enospc +
           storage_eio + fsync_failures + rename_failures;
  }
  /// "eintr=3 short_reads=2 ..." (nonzero counters only; "clean" if none).
  std::string summary() const;
};

/// SysOps implementation that injects `plan` faults in front of `inner`
/// (the real kernel by default). `set_enabled(false)` turns it into a
/// plain passthrough — the inject → stop → verify-steady-state pattern the
/// chaos soak uses before comparing final reports.
class FaultySysOps final : public SysOps {
 public:
  explicit FaultySysOps(SysFaultPlan plan, SysOps* inner = nullptr);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  const SysFaultLog& log() const { return log_; }
  void reset_log() { log_ = SysFaultLog{}; }

  ssize_t read(int fd, void* buf, std::size_t n) override;
  ssize_t write(int fd, const void* buf, std::size_t n) override;
  ssize_t recv(int fd, void* buf, std::size_t n, int flags) override;
  ssize_t send(int fd, const void* buf, std::size_t n, int flags) override;
  int accept(int fd, sockaddr* addr, socklen_t* len) override;
  int poll_wait(pollfd* fds, nfds_t nfds, int timeout_ms) override;
#if UNCHARTED_SYSFAULT_HAVE_EPOLL
  int epoll_wait(int epfd, epoll_event* events, int maxevents,
                 int timeout_ms) override;
#endif
  int open(const char* path, int flags, unsigned mode) override;
  int close(int fd) override;
  int fsync(int fd) override;
  int rename(const char* from, const char* to) override;

 private:
  /// Advances the burst schedule by one op; call once per faultable op.
  void begin_op();
  /// Seeded Bernoulli trial at `p`, boosted while inside a burst.
  bool roll(double p);
  /// 1..16 bytes (but never more than n-1) for short read/write injection.
  std::size_t shorten(std::size_t n);
  bool is_storage(int fd) const { return storage_fds_.count(fd) > 0; }

  SysFaultPlan plan_;
  SysOps& inner_;
  Rng rng_;
  SysFaultLog log_;
  bool enabled_ = true;
  std::uint64_t op_index_ = 0;
  std::uint64_t burst_left_ = 0;
  bool in_burst_ = false;
  std::set<int> storage_fds_;
};

// ---------------------------------------------------------------------------
// Retry helpers: the one place errno is interpreted.
// ---------------------------------------------------------------------------

enum class IoStatus : std::uint8_t {
  kOk,          ///< bytes transferred (or fd accepted)
  kWouldBlock,  ///< EAGAIN/EWOULDBLOCK (or a bounded EINTR storm): retry
                ///< on the next readiness event
  kEof,         ///< orderly peer close (reads only)
  kError,       ///< anything else; `err` holds the errno
};

struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::size_t bytes = 0;  ///< valid when status == kOk
  int err = 0;            ///< valid when status == kError
};

struct AcceptResult {
  int fd = -1;  ///< valid when status == kOk
  IoStatus status = IoStatus::kOk;
  int err = 0;  ///< valid when status == kError
};

/// One syscall attempt with bounded EINTR absorption (a persistent signal
/// storm degrades to kWouldBlock — the reactor will re-offer readiness —
/// instead of looping forever).
IoResult retry_read(SysOps& sys, int fd, void* buf, std::size_t n);
IoResult retry_write(SysOps& sys, int fd, const void* buf, std::size_t n);
IoResult retry_recv(SysOps& sys, int fd, void* buf, std::size_t n,
                    int flags = 0);
IoResult retry_send(SysOps& sys, int fd, const void* buf, std::size_t n,
                    int flags = 0);
/// Also absorbs ECONNABORTED/EPROTO (the connection died in the backlog —
/// try the next one). EMFILE and friends surface as kError for the
/// caller's admission control; classify with `fd_exhausted`.
AcceptResult retry_accept(SysOps& sys, int fd, sockaddr* addr, socklen_t* len);

/// True for the errno family meaning "out of descriptors or kernel
/// memory": EMFILE, ENFILE, ENOBUFS, ENOMEM.
bool fd_exhausted(int err);

}  // namespace uncharted::faultinject
