#include "netd/reactor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#if defined(__linux__)
#include <sys/epoll.h>
#define UNCHARTED_NETD_HAVE_EPOLL 1
#else
#define UNCHARTED_NETD_HAVE_EPOLL 0
#endif

namespace uncharted::netd {

namespace {

Status errno_error(const char* code, const char* what) {
  return Error{code, std::string(what) + ": " + std::strerror(errno)};
}

#if UNCHARTED_NETD_HAVE_EPOLL
std::uint32_t to_epoll(std::uint32_t interest) {
  std::uint32_t ev = 0;
  if (interest & kEventRead) ev |= EPOLLIN;
  if (interest & kEventWrite) ev |= EPOLLOUT;
  return ev;
}

std::uint32_t from_epoll(std::uint32_t ev) {
  std::uint32_t out = 0;
  if (ev & (EPOLLIN | EPOLLPRI)) out |= kEventRead;
  if (ev & EPOLLOUT) out |= kEventWrite;
  if (ev & (EPOLLERR | EPOLLHUP)) out |= kEventError;
  return out;
}
#endif

short to_poll(std::uint32_t interest) {
  short ev = 0;
  if (interest & kEventRead) ev |= POLLIN;
  if (interest & kEventWrite) ev |= POLLOUT;
  return ev;
}

std::uint32_t from_poll(short ev) {
  std::uint32_t out = 0;
  if (ev & (POLLIN | POLLPRI)) out |= kEventRead;
  if (ev & POLLOUT) out |= kEventWrite;
  if (ev & (POLLERR | POLLHUP | POLLNVAL)) out |= kEventError;
  return out;
}

}  // namespace

Backend Reactor::default_backend() {
#if UNCHARTED_NETD_HAVE_EPOLL
  return Backend::kEpoll;
#else
  return Backend::kPoll;
#endif
}

Status Reactor::make_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_error("netd-fcntl", "F_GETFL");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_error("netd-fcntl", "F_SETFL O_NONBLOCK");
  }
  int fdflags = ::fcntl(fd, F_GETFD, 0);
  if (fdflags >= 0) ::fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC);
  return Status::Ok();
}

Reactor::Reactor(Backend backend, faultinject::SysOps* sys)
    : backend_(backend),
      sys_(sys != nullptr ? *sys : faultinject::real_sys_ops()) {
#if UNCHARTED_NETD_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) backend_ = Backend::kPoll;  // degrade, never fail
  }
#else
  backend_ = Backend::kPoll;
#endif
  int pipefd[2] = {-1, -1};
  if (::pipe(pipefd) == 0) {
    wake_read_ = pipefd[0];
    wake_write_ = pipefd[1];
    (void)make_nonblocking(wake_read_);
    (void)make_nonblocking(wake_write_);
#if UNCHARTED_NETD_HAVE_EPOLL
    if (backend_ == Backend::kEpoll) {
      struct epoll_event ev {};
      ev.events = EPOLLIN;
      ev.data.fd = wake_read_;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_, &ev);
    }
#endif
  }
}

Reactor::~Reactor() {
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
#if UNCHARTED_NETD_HAVE_EPOLL
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
#endif
}

Status Reactor::add_fd(int fd, std::uint32_t interest, FdCallback cb) {
  if (fd < 0) return Error{"netd-badfd", "negative fd"};
  if (fds_.count(fd) > 0) {
    return Error{"netd-dupfd", "fd " + std::to_string(fd) + " already registered"};
  }
#if UNCHARTED_NETD_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    struct epoll_event ev {};
    ev.events = to_epoll(interest);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      return errno_error("netd-epoll-add", "EPOLL_CTL_ADD");
    }
  }
#endif
  fds_[fd] = FdEntry{interest, std::move(cb)};
  return Status::Ok();
}

Status Reactor::set_interest(int fd, std::uint32_t interest) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return Error{"netd-nofd", "fd " + std::to_string(fd) + " not registered"};
  }
  if (it->second.interest == interest) return Status::Ok();
#if UNCHARTED_NETD_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    struct epoll_event ev {};
    ev.events = to_epoll(interest);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
      return errno_error("netd-epoll-mod", "EPOLL_CTL_MOD");
    }
  }
#endif
  it->second.interest = interest;
  return Status::Ok();
}

void Reactor::remove_fd(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
#if UNCHARTED_NETD_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
#endif
  fds_.erase(it);
}

std::uint64_t Reactor::add_timer_after(double delay_s, TimerCallback cb) {
  if (delay_s < 0.0) delay_s = 0.0;
  const auto delay = std::chrono::duration_cast<MonoClock::duration>(
      std::chrono::duration<double>(delay_s));
  return add_timer_at(MonoClock::now() + delay, std::move(cb));
}

std::uint64_t Reactor::add_timer_at(MonoTime deadline, TimerCallback cb) {
  const std::uint64_t id = next_timer_id_++;
  timers_.emplace(std::make_pair(deadline, id), std::move(cb));
  return id;
}

void Reactor::cancel_timer(std::uint64_t id) {
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->first.second == id) {
      timers_.erase(it);
      return;
    }
  }
}

int Reactor::timeout_for(int max_wait_ms) const {
  if (max_wait_ms < 0) max_wait_ms = 0;
  if (timers_.empty()) return max_wait_ms;
  const MonoTime next = timers_.begin()->first.first;
  const MonoTime now = MonoClock::now();
  if (next <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(next - now).count() + 1;
  return static_cast<int>(std::min<long long>(ms, max_wait_ms));
}

void Reactor::fire_due_timers() {
  const MonoTime now = MonoClock::now();
  // Pop one at a time: a firing timer may add or cancel other timers.
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    TimerCallback cb = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    cb();
  }
}

bool Reactor::run_once(int max_wait_ms) {
  const int timeout_ms = timeout_for(max_wait_ms);
  // Ready set snapshot: (fd, events) pairs in ascending fd order, so both
  // backends dispatch identically and callbacks may mutate the registry.
  // The buffer is the member's, taken for the turn and handed back after
  // it, so a steady-state turn allocates nothing.
  std::vector<std::pair<int, std::uint32_t>> ready;
  ready.swap(ready_);
  ready.clear();

#if UNCHARTED_NETD_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    const std::size_t want = std::max<std::size_t>(fds_.size() + 1, 64);
    if (epoll_events_.size() < want) epoll_events_.resize(want);
    int n = sys_.epoll_wait(epoll_fd_, epoll_events_.data(),
                            static_cast<int>(epoll_events_.size()), timeout_ms);
    for (int i = 0; i < n; ++i) {
      const struct epoll_event& ev = epoll_events_[static_cast<std::size_t>(i)];
      ready.emplace_back(ev.data.fd, from_epoll(ev.events));
    }
    std::sort(ready.begin(), ready.end());
  }
#endif
  if (backend_ == Backend::kPoll) {
    poll_fds_.clear();
    if (wake_read_ >= 0) poll_fds_.push_back(pollfd{wake_read_, POLLIN, 0});
    for (const auto& [fd, entry] : fds_) {
      poll_fds_.push_back(pollfd{fd, to_poll(entry.interest), 0});
    }
    int n = sys_.poll_wait(poll_fds_.data(), static_cast<nfds_t>(poll_fds_.size()),
                           timeout_ms);
    if (n > 0) {
      for (const auto& p : poll_fds_) {
        if (p.revents != 0) ready.emplace_back(p.fd, from_poll(p.revents));
      }
      std::sort(ready.begin(), ready.end());
    }
  }

  bool ran = false;
  for (const auto& [fd, events] : ready) {
    if (fd == wake_read_) {
      char buf[64];
      while (faultinject::retry_read(sys_, wake_read_, buf, sizeof buf).status ==
             faultinject::IoStatus::kOk) {
      }
      if (wakeup_cb_) wakeup_cb_();
      ran = true;
      continue;
    }
    auto it = fds_.find(fd);
    if (it == fds_.end()) continue;  // removed by an earlier callback
    // Only deliver events the owner asked for (plus errors); copy the
    // callback out so the owner may remove_fd() from inside it.
    const std::uint32_t masked =
        events & (it->second.interest | kEventError);
    if (masked == 0) continue;
    FdCallback cb = it->second.cb;
    cb(masked);
    ran = true;
  }
  ready_.swap(ready);
  fire_due_timers();
  return ran;
}

void Reactor::run() {
  stopped_ = false;
  while (!stopped_) run_once(500);
}

void Reactor::stop() {
  stopped_ = true;
  notify_from_signal();
}

void Reactor::notify_from_signal() {
  if (wake_write_ < 0) return;
  const char byte = 1;
  // Async-signal-safe: a single write(2); EAGAIN just means a wakeup is
  // already pending, which is equally good. Deliberately NOT routed
  // through SysOps: a virtual dispatch into FaultySysOps (which mutates
  // its RNG and fault ledger) is not reentrant from a signal handler.
  [[maybe_unused]] ssize_t rc =
      ::write(wake_write_, &byte, 1);  // UNCHARTED-LINT-ALLOW(netd-raw-socket): async-signal-safe self-pipe wakeup must bypass the (stateful, non-reentrant) SysOps shim

}

}  // namespace uncharted::netd
