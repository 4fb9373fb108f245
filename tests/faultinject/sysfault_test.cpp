// Unit tests for the syscall fault-injection layer: determinism, fault
// classes, burst schedules, storage-fd classification, the ledger, and
// the retry helpers' errno handling.
#include "faultinject/sysfault.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace uncharted::faultinject {
namespace {

/// Two ends of a pipe, closed on destruction. A pipe is the simplest fd
/// pair that exercises read/write without network setup.
struct Pipe {
  int rd = -1;
  int wr = -1;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(0, ::pipe(fds));
    rd = fds[0];
    wr = fds[1];
  }
  ~Pipe() {
    if (rd >= 0) ::close(rd);
    if (wr >= 0) ::close(wr);
  }
};

/// A connected AF_UNIX socket pair (for recv/send fault classes).
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("sysfault_test_") + name + "_" +
           std::to_string(::getpid())))
      .string();
}

TEST(SysFault, RealSysOpsIsAPassthrough) {
  SysOps& sys = real_sys_ops();
  Pipe p;
  const char msg[] = "hello";
  ASSERT_EQ(static_cast<ssize_t>(sizeof msg), sys.write(p.wr, msg, sizeof msg));
  char buf[16] = {};
  ASSERT_EQ(static_cast<ssize_t>(sizeof msg), sys.read(p.rd, buf, sizeof buf));
  EXPECT_STREQ("hello", buf);
}

TEST(SysFault, SameSeedSameFaultSequence) {
  // Record (result, errno) for a fixed op sequence under two instances of
  // the same plan: they must agree byte for byte.
  auto run = [](std::uint64_t seed) {
    SysFaultPlan plan = SysFaultPlan::network(0.3, seed);
    FaultySysOps sys(plan);
    Pipe p;
    // Nonblocking on both ends: the pipe state is a pure function of the
    // fault decisions, and a faulted write can never strand a read.
    ::fcntl(p.rd, F_SETFL, O_NONBLOCK);
    ::fcntl(p.wr, F_SETFL, O_NONBLOCK);
    std::vector<std::pair<ssize_t, int>> trace;
    const char msg[] = "0123456789abcdef0123456789abcdef";
    char buf[sizeof msg] = {};
    for (int i = 0; i < 200; ++i) {
      errno = 0;
      const ssize_t w = sys.write(p.wr, msg, sizeof msg);
      trace.emplace_back(w, errno);
      errno = 0;
      const ssize_t r = sys.read(p.rd, buf, sizeof buf);
      trace.emplace_back(r, errno);
      // Drain leftovers so the pipe never fills: the fault decisions, not
      // pipe backpressure, drive the trace.
      RealSysOps real;
      char drain[64];
      while (real.read(p.rd, drain, sizeof drain) > 0) {
      }
    }
    return trace;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(SysFault, RateOneAlwaysFires) {
  SysFaultPlan plan;
  plan.eintr_p = 1.0;
  FaultySysOps sys(plan);
  Pipe p;
  char c = 'x';
  for (int i = 0; i < 10; ++i) {
    errno = 0;
    EXPECT_EQ(-1, sys.write(p.wr, &c, 1));
    EXPECT_EQ(EINTR, errno);
  }
  EXPECT_EQ(10u, sys.log().eintr);
  EXPECT_EQ(10u, sys.log().ops);
}

TEST(SysFault, RateZeroNeverFires) {
  FaultySysOps sys(SysFaultPlan{});  // all rates zero
  Pipe p;
  const char msg[] = "payload";
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(static_cast<ssize_t>(sizeof msg),
              sys.write(p.wr, msg, sizeof msg));
    char buf[sizeof msg];
    ASSERT_EQ(static_cast<ssize_t>(sizeof msg),
              sys.read(p.rd, buf, sizeof buf));
  }
  EXPECT_EQ(0u, sys.log().total());
  EXPECT_EQ("clean", sys.log().summary());
}

TEST(SysFault, ShortWritesDeliverBetweenOneAndSixteenBytes) {
  SysFaultPlan plan;
  plan.short_write_p = 1.0;
  FaultySysOps sys(plan);
  Pipe p;
  std::array<char, 128> msg{};
  for (int i = 0; i < 20; ++i) {
    const ssize_t w = sys.write(p.wr, msg.data(), msg.size());
    ASSERT_GE(w, 1);
    ASSERT_LE(w, 16);
    char drain[128];
    ASSERT_EQ(w, sys.read(p.rd, drain, static_cast<std::size_t>(w)));
  }
  EXPECT_EQ(20u, sys.log().short_writes);
}

TEST(SysFault, ConnResetFiresOnSocketsOnly) {
  SysFaultPlan plan;
  plan.conn_reset_p = 1.0;
  FaultySysOps sys(plan);
  SocketPair sp;
  const char msg[] = "iec104";
  errno = 0;
  EXPECT_EQ(-1, sys.send(sp.a, msg, sizeof msg, 0));
  EXPECT_EQ(ECONNRESET, errno);
  char buf[16];
  errno = 0;
  EXPECT_EQ(-1, sys.recv(sp.b, buf, sizeof buf, 0));
  EXPECT_EQ(ECONNRESET, errno);
  EXPECT_EQ(2u, sys.log().conn_resets);
  // conn_reset_p does not apply to plain read/write (pipes).
  Pipe p;
  EXPECT_EQ(1, sys.write(p.wr, "x", 1));
}

TEST(SysFault, AcceptEmfileSurfacesThroughRetryAccept) {
  SysFaultPlan plan;
  plan.accept_emfile_p = 1.0;
  FaultySysOps sys(plan);
  const AcceptResult ar = retry_accept(sys, /*fd=*/-1, nullptr, nullptr);
  EXPECT_EQ(IoStatus::kError, ar.status);
  EXPECT_TRUE(fd_exhausted(ar.err));
  EXPECT_EQ(EMFILE, ar.err);
  EXPECT_GE(sys.log().accept_emfile, 1u);
}

TEST(SysFault, FdExhaustedClassifiesTheDescriptorErrnoFamily) {
  EXPECT_TRUE(fd_exhausted(EMFILE));
  EXPECT_TRUE(fd_exhausted(ENFILE));
  EXPECT_TRUE(fd_exhausted(ENOBUFS));
  EXPECT_TRUE(fd_exhausted(ENOMEM));
  EXPECT_FALSE(fd_exhausted(ECONNRESET));
  EXPECT_FALSE(fd_exhausted(EAGAIN));
}

TEST(SysFault, StorageFaultsOnlyHitFdsOpenedThroughSysOps) {
  SysFaultPlan plan;
  plan.write_enospc_p = 1.0;  // storage-only class
  FaultySysOps sys(plan);

  // A pipe fd (not opened via SysOps::open) never sees ENOSPC.
  Pipe p;
  EXPECT_EQ(1, sys.write(p.wr, "x", 1));

  const std::string path = temp_path("storage");
  const int fd = sys.open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(-1, sys.write(fd, "x", 1));
  EXPECT_EQ(ENOSPC, errno);
  EXPECT_EQ(1u, sys.log().write_enospc);

  // close() unregisters the fd: if the number is recycled for a socket it
  // must not inherit the storage fault classes.
  ASSERT_EQ(0, sys.close(fd));
  Pipe p2;
  EXPECT_EQ(1, sys.write(p2.wr, "y", 1));
  std::filesystem::remove(path);
}

TEST(SysFault, FsyncAndRenameFaults) {
  SysFaultPlan plan;
  plan.fsync_fail_p = 1.0;
  plan.rename_fail_p = 1.0;
  FaultySysOps sys(plan);

  const std::string path = temp_path("fsync");
  const int fd = sys.open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(-1, sys.fsync(fd));
  EXPECT_EQ(EIO, errno);
  (void)sys.close(fd);

  // A torn rename leaves BOTH names untouched.
  const std::string to = path + ".renamed";
  errno = 0;
  EXPECT_EQ(-1, sys.rename(path.c_str(), to.c_str()));
  EXPECT_EQ(EIO, errno);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(to));
  EXPECT_EQ(1u, sys.log().fsync_failures);
  EXPECT_EQ(1u, sys.log().rename_failures);
  std::filesystem::remove(path);
}

TEST(SysFault, OpenFailureLeavesNoFileBehind) {
  SysFaultPlan plan;
  plan.open_fail_p = 1.0;
  FaultySysOps sys(plan);
  const std::string path = temp_path("openfail");
  errno = 0;
  EXPECT_EQ(-1, sys.open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
  EXPECT_EQ(ENOSPC, errno);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(1u, sys.log().open_failures);
}

TEST(SysFault, BurstScheduleBoostsRatesPeriodically) {
  // Base rate low enough that faults essentially never fire outside a
  // burst; boost high enough that they always fire inside one. The op
  // stream then shows faults exactly at the scheduled windows.
  SysFaultPlan plan;
  plan.seed = 42;
  plan.eintr_p = 1e-9;
  plan.burst_period = 10;
  plan.burst_len = 3;
  plan.burst_boost = 1e9;  // capped at probability 1.0
  FaultySysOps sys(plan);
  Pipe p;
  char c = 'x';
  std::vector<bool> faulted;
  for (int i = 0; i < 30; ++i) {
    errno = 0;
    const ssize_t w = sys.write(p.wr, &c, 1);
    faulted.push_back(w < 0 && errno == EINTR);
    if (w == 1) {
      char drain;
      (void)sys.read(p.rd, &drain, 1);  // also a faultable op
    }
  }
  // Ops 0,1,2 of every period of 10 faultable ops are boosted, so the
  // burst-op count is exactly 3 per complete period plus the start of any
  // partial one — and with boost saturating at 1.0, every boosted op
  // fired EINTR while (at p = 1e-9) no unboosted op did.
  const std::uint64_t n = sys.log().ops;
  EXPECT_GT(n, 10u);
  EXPECT_EQ(n / 10 * 3 + std::min<std::uint64_t>(3, n % 10),
            sys.log().burst_ops);
  EXPECT_EQ(sys.log().eintr, sys.log().burst_ops);
}

TEST(SysFault, DisabledMeansPassthroughAndNoLedgerGrowth) {
  SysFaultPlan plan;
  plan.eintr_p = 1.0;
  FaultySysOps sys(plan);
  sys.set_enabled(false);
  Pipe p;
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(1, sys.write(p.wr, "x", 1));
    char c;
    ASSERT_EQ(1, sys.read(p.rd, &c, 1));
  }
  EXPECT_EQ(0u, sys.log().ops);
  EXPECT_EQ(0u, sys.log().total());
  sys.set_enabled(true);
  errno = 0;
  EXPECT_EQ(-1, sys.write(p.wr, "x", 1));
  EXPECT_EQ(EINTR, errno);
}

TEST(SysFault, RetryHelpersAbsorbBoundedEintrStorms) {
  SysFaultPlan plan;
  plan.eintr_p = 1.0;
  FaultySysOps sys(plan);
  Pipe p;
  char c = 'x';
  // An unbounded storm degrades to kWouldBlock instead of spinning.
  const IoResult w = retry_write(sys, p.wr, &c, 1);
  EXPECT_EQ(IoStatus::kWouldBlock, w.status);
  EXPECT_GE(sys.log().eintr, 64u);

  // A finite storm is absorbed: disable after priming the RNG state is
  // not possible mid-call, so emulate with a half-rate plan instead.
  SysFaultPlan half;
  half.seed = 3;
  half.eintr_p = 0.5;
  FaultySysOps hsys(half);
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    const IoResult r = retry_write(hsys, p.wr, &c, 1);
    if (r.status == IoStatus::kOk) {
      ++ok;
      char drain;
      (void)retry_read(hsys, p.rd, &drain, 1);
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(hsys.log().eintr, 0u);
}

TEST(SysFault, RetryReadReportsEofAndWouldBlock) {
  SysOps& sys = real_sys_ops();
  Pipe p;
  ::close(p.wr);
  p.wr = -1;
  char c;
  EXPECT_EQ(IoStatus::kEof, retry_read(sys, p.rd, &c, 1).status);

  Pipe np;
  ::fcntl(np.rd, F_SETFL, O_NONBLOCK);
  EXPECT_EQ(IoStatus::kWouldBlock, retry_read(sys, np.rd, &c, 1).status);
}

TEST(SysFault, RetrySendSurfacesHardErrors) {
  SysOps& sys = real_sys_ops();
  SocketPair sp;
  ::close(sp.b);
  sp.b = -1;
  const char msg[] = "x";
  // First send may succeed (peer closed but buffer open); the second hits
  // EPIPE. MSG_NOSIGNAL keeps the test alive.
  IoResult r = retry_send(sys, sp.a, msg, 1, MSG_NOSIGNAL);
  if (r.status == IoStatus::kOk) r = retry_send(sys, sp.a, msg, 1, MSG_NOSIGNAL);
  EXPECT_EQ(IoStatus::kError, r.status);
  EXPECT_EQ(EPIPE, r.err);
}

TEST(SysFault, DelayedReadinessReportsNothingReady) {
  SysFaultPlan plan;
  plan.delayed_ready_p = 1.0;
  FaultySysOps sys(plan);
  Pipe p;
  ASSERT_EQ(1, real_sys_ops().write(p.wr, "x", 1));
  pollfd pfd{p.rd, POLLIN, 0};
  // Data is waiting, but the injected delay hides it this round.
  EXPECT_EQ(0, sys.poll_wait(&pfd, 1, 0));
  EXPECT_EQ(0, pfd.revents);
  EXPECT_GE(sys.log().delayed_ready, 1u);
  // A level-triggered re-poll with faults off sees it immediately.
  sys.set_enabled(false);
  EXPECT_EQ(1, sys.poll_wait(&pfd, 1, 0));
  EXPECT_NE(0, pfd.revents & POLLIN);
}

TEST(SysFault, SummaryListsNonzeroCountersOnly) {
  SysFaultLog log;
  EXPECT_EQ("clean", log.summary());
  log.eintr = 3;
  log.rename_failures = 1;
  EXPECT_EQ("eintr=3 rename_failures=1", log.summary());
}

TEST(SysFault, FactoryPlansCoverTheirPlane) {
  const SysFaultPlan net = SysFaultPlan::network(0.1);
  EXPECT_GT(net.eintr_p, 0.0);
  EXPECT_GT(net.conn_reset_p, 0.0);
  EXPECT_EQ(0.0, net.write_enospc_p);

  const SysFaultPlan sto = SysFaultPlan::storage(0.1);
  EXPECT_EQ(0.0, sto.eintr_p);
  EXPECT_GT(sto.write_enospc_p, 0.0);
  EXPECT_GT(sto.fsync_fail_p, 0.0);

  const SysFaultPlan both = SysFaultPlan::compound(0.1);
  EXPECT_GT(both.eintr_p, 0.0);
  EXPECT_GT(both.write_enospc_p, 0.0);
  EXPECT_GT(both.burst_period, 0u);
}

}  // namespace
}  // namespace uncharted::faultinject
