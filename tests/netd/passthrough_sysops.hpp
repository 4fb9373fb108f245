// A SysOps that forwards every call to the real kernel. Tests derive from
// it and override `send` to watch or hold back specific messages on the
// wire without touching the code under test.
#pragma once

#include "faultinject/sysfault.hpp"

namespace uncharted::netd {

class PassthroughSysOps : public faultinject::SysOps {
 public:
  ssize_t read(int fd, void* buf, std::size_t n) override {
    return real().read(fd, buf, n);
  }
  ssize_t write(int fd, const void* buf, std::size_t n) override {
    return real().write(fd, buf, n);
  }
  ssize_t recv(int fd, void* buf, std::size_t n, int flags) override {
    return real().recv(fd, buf, n, flags);
  }
  ssize_t send(int fd, const void* buf, std::size_t n, int flags) override {
    return real().send(fd, buf, n, flags);
  }
  int accept(int fd, sockaddr* addr, socklen_t* len) override {
    return real().accept(fd, addr, len);
  }
  int poll_wait(pollfd* fds, nfds_t nfds, int timeout_ms) override {
    return real().poll_wait(fds, nfds, timeout_ms);
  }
#if UNCHARTED_SYSFAULT_HAVE_EPOLL
  int epoll_wait(int epfd, epoll_event* evs, int max, int timeout_ms) override {
    return real().epoll_wait(epfd, evs, max, timeout_ms);
  }
#endif
  int open(const char* path, int flags, unsigned mode) override {
    return real().open(path, flags, mode);
  }
  int close(int fd) override { return real().close(fd); }
  int fsync(int fd) override { return real().fsync(fd); }
  int rename(const char* from, const char* to) override {
    return real().rename(from, to);
  }

 protected:
  static faultinject::SysOps& real() { return faultinject::real_sys_ops(); }
};

}  // namespace uncharted::netd
