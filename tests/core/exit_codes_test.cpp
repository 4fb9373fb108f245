// The CLI exit-code contract (README "Exit codes"): every tool reports
// 0 = clean, 1 = usage/unreadable input, 2 = degraded, 3 = hostile
// (hostile wins over degraded). These tests shell out to the real
// binaries, because the contract is what scripts/soak.sh and operators'
// cron jobs consume.
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "netd/wire.hpp"
#include "util/bytes.hpp"

namespace {

#ifndef UNCHARTED_BIN_IEC104DUMP
#error "UNCHARTED_BIN_IEC104DUMP must point at the iec104dump binary"
#endif

int run(const std::string& cmd) {
  const int rc = std::system((cmd + " >/dev/null 2>&1").c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

std::string quoted(const char* path) {
  std::string out = "'";
  out += path;
  out += '\'';
  return out;
}

/// A scratch path private to this process. ctest -j runs every test in a
/// process of its own, and processes sharing one path read each other's
/// half-written files.
std::string temp_path(const char* name) {
  std::string path = testing::TempDir();
  path += "/exitcodes_";
  path += std::to_string(::getpid());
  path += '_';
  path += name;
  return path;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Fixture pcaps, generated once per process on first use and removed at
/// its exit.
struct Pcaps {
  Pcaps()
      : clean(temp_path("clean.pcap")),
        truncated(temp_path("truncated.pcap")),
        hostile(temp_path("hostile.pcap")) {
    EXPECT_EQ(run(quoted(UNCHARTED_BIN_CAPTURE_GENERATOR) +
                  " --year 1 --duration 10 --seed 7 --no-events --out " + clean),
              0);
    EXPECT_EQ(run(quoted(UNCHARTED_BIN_CAPTURE_GENERATOR) +
                  " --year 1 --duration 10 --seed 7 --no-events --hostile "
                  "--out " +
                  hostile),
              0);
    // Chop the clean pcap mid-record: a truncated tail is the mildest
    // degradation the pipeline reports.
    const std::string bytes = read_text(clean);
    EXPECT_GT(bytes.size(), 64u);
    std::ofstream cut(truncated, std::ios::binary);
    cut.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 11));
  }
  ~Pcaps() {
    for (const auto* path : {&clean, &truncated, &hostile}) std::remove(path->c_str());
  }
  Pcaps(const Pcaps&) = delete;
  Pcaps& operator=(const Pcaps&) = delete;

  std::string clean;
  std::string truncated;
  std::string hostile;
};

const Pcaps& pcaps() {
  static const Pcaps p;
  return p;
}

TEST(ExitCodes, CleanCaptureExitsZero) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104DUMP) + " " + pcaps().clean +
                " --conformance --limit 1"),
            0);
}

TEST(ExitCodes, UnreadableInputExitsOne) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104DUMP) + " /no/such/capture.pcap"),
            1);
}

TEST(ExitCodes, UsageErrorsExitOne) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_CAPTURE_GENERATOR) + " --no-such-flag"),
            1);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104D) + " --no-such-flag"), 1);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_LONGRUN_MONITOR) + " --no-such-flag"), 1);
}

// An unknown option is a usage error, never a pcap path: `--threads 4`
// once made iec104dump report that it could not read a file named 4.
TEST(ExitCodes, Iec104dumpRefusesUnknownOptions) {
  const std::string dump = quoted(UNCHARTED_BIN_IEC104DUMP);
  EXPECT_EQ(run(dump + " " + pcaps().clean + " --threads 4"), 1);
  EXPECT_EQ(run(dump + " -x " + pcaps().clean), 1);
  EXPECT_EQ(run(dump + " " + pcaps().clean + " --limit"), 1);

  const std::string err_path = temp_path("dump_usage.txt");
  const std::string cmd =
      dump + " " + pcaps().clean + " --threads 4 >/dev/null 2>" + err_path;
  ASSERT_NE(std::system(cmd.c_str()), -1);
  const std::string err = read_text(err_path);
  std::remove(err_path.c_str());
  EXPECT_NE(err.find("unknown option --threads"), std::string::npos) << err;
  EXPECT_NE(err.find("usage: "), std::string::npos) << err;
  EXPECT_EQ(err.find("cannot read"), std::string::npos) << err;
}

// The same contract for network_profiler: an unknown option, or --export
// with no directory after it, is a usage error, never a pcap path.
TEST(ExitCodes, NetworkProfilerRefusesUnknownOptions) {
  const std::string profiler = quoted(UNCHARTED_BIN_NETWORK_PROFILER);
  EXPECT_EQ(run(profiler + " " + pcaps().clean + " --threads 4"), 1);
  EXPECT_EQ(run(profiler + " -x " + pcaps().clean), 1);
  EXPECT_EQ(run(profiler + " " + pcaps().clean + " --export"), 1);

  const std::string err_path = temp_path("profiler_usage.txt");
  for (const std::string& args :
       {pcaps().clean + " --threads 4", pcaps().clean + " --export"}) {
    const std::string cmd = profiler + " " + args + " >/dev/null 2>" + err_path;
    ASSERT_NE(std::system(cmd.c_str()), -1);
    const std::string err = read_text(err_path);
    EXPECT_NE(err.find("usage: "), std::string::npos) << err;
    EXPECT_EQ(err.find("cannot read"), std::string::npos) << err;
  }
  std::remove(err_path.c_str());
}

// `--batch` is not a longrun_monitor flag: a script that still passes it
// gets the usage line and exit 1, not a silently different run.
TEST(ExitCodes, LongrunMonitorRefusesTheBatchFlag) {
  const std::string err_path = temp_path("longrun_usage.txt");
  const std::string cmd = quoted(UNCHARTED_BIN_LONGRUN_MONITOR) + " --pcap " +
                          pcaps().clean + " --batch 64 --quiet >/dev/null 2>" +
                          err_path;
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(rc != -1 && WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 1);
  const std::string err = read_text(err_path);
  std::remove(err_path.c_str());
  EXPECT_NE(err.find("usage: "), std::string::npos) << err;
}

TEST(ExitCodes, TruncatedCaptureExitsTwoDegraded) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104DUMP) + " " + pcaps().truncated +
                " --limit 1"),
            2);
}

TEST(ExitCodes, HostileCaptureExitsThreeAndWinsOverDegraded) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104DUMP) + " " + pcaps().hostile +
                " --conformance --limit 1"),
            3);
}

TEST(ExitCodes, LongrunMonitorHonorsTheSameLadder) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_LONGRUN_MONITOR) + " --pcap " +
                pcaps().clean + " --quiet"),
            0);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_LONGRUN_MONITOR) + " --pcap " +
                pcaps().truncated + " --quiet"),
            2);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_LONGRUN_MONITOR) + " --pcap " +
                pcaps().hostile + " --quiet"),
            3);
}

// A restart on the shutdown checkpoint of a finished run skips the whole
// capture and must still report it exactly: the same JSON and the same exit
// code as one uninterrupted single-thread run, for a clean, a degraded and
// a hostile capture.
TEST(ExitCodes, LongrunMonitorResumesFromItsShutdownCheckpoint) {
  const std::string longrun = quoted(UNCHARTED_BIN_LONGRUN_MONITOR);
  const std::string ckpt = temp_path("resume.ckpt");
  const std::string ref = temp_path("resume_ref.json");
  const std::string first = temp_path("resume_first.json");
  const std::string resumed = temp_path("resume_resumed.json");
  const std::string stdout_path = temp_path("resume_stdout.txt");
  for (const std::string* pcap : {&pcaps().clean, &pcaps().truncated, &pcaps().hostile}) {
    SCOPED_TRACE(*pcap);
    for (const char* suffix : {"", ".1", ".tmp"}) std::remove((ckpt + suffix).c_str());
    const std::string base = longrun + " --pcap " + *pcap + " --quiet";
    const int ref_rc = run(base + " --threads 1 --report " + ref);
    const int first_rc =
        run(base + " --checkpoint " + ckpt + " --interval 1000 --report " + first);
    const std::string resume_cmd = base + " --checkpoint " + ckpt +
                                   " --interval 1000 --report " + resumed + " >" +
                                   stdout_path + " 2>/dev/null";
    const int resumed_rc = std::system(resume_cmd.c_str());
    ASSERT_TRUE(resumed_rc != -1 && WIFEXITED(resumed_rc));
    EXPECT_NE(read_text(stdout_path).find("resumed from checkpoint"), std::string::npos);
    EXPECT_EQ(first_rc, ref_rc);
    EXPECT_EQ(WEXITSTATUS(resumed_rc), ref_rc);
    const std::string want = read_text(ref);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(read_text(first), want);
    EXPECT_EQ(read_text(resumed), want);
  }
  for (const std::string& path : {ref, first, resumed, stdout_path}) std::remove(path.c_str());
  for (const char* suffix : {"", ".1", ".tmp"}) std::remove((ckpt + suffix).c_str());
}

TEST(ExitCodes, IdleDaemonDrainsCleanWithExitZero) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104D) +
                " --port 0 --run-for 0.2 --quiet"),
            0);
}

TEST(ExitCodes, DaemonSelfTerminatesWithExitFourWhenTheLadderExhausts) {
  // A checkpoint writer wedged past both restart rungs: the recovery
  // ladder's terminal rung asks for exit 4 so a supervisor restarts the
  // daemon into --restore. Distinct from 0/1/2/3 and from 42.
  const std::string ckpt = temp_path("selfterm.ckpt");
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104D) + " --port 0 --checkpoint " +
                ckpt +
                " --interval 0.05 --stall-checkpoint --watchdog-poll 0.02"
                " --watchdog-checkpoint 0.15 --run-for 10 --quiet"),
            4);
  for (const char* suffix : {"", ".1", ".tmp"}) std::remove((ckpt + suffix).c_str());
}

TEST(ExitCodes, FleetHonorsTheSameLadder) {
  // Usage error and a failed query/health fetch are 1, like every tool.
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) + " --no-such-flag"), 1);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) +
                " --connect 127.0.0.1:1 --health"),
            1);
}

/// A background iec104d with no wall-clock lifetime: it runs until this
/// guard's destructor signals it, so a loaded host cannot end it under a
/// fleet that is still streaming, and a failed ASSERT cannot orphan it.
/// PR_SET_PDEATHSIG covers the last case, the test binary itself dying.
class BackgroundDaemon {
 public:
  explicit BackgroundDaemon(const std::string& stdout_path,
                            std::vector<std::string> extra_args = {})
      : stdout_path_(stdout_path) {
    // The argument vector is built before fork: the child only execs.
    std::vector<std::string> args = {UNCHARTED_BIN_IEC104D, "--port", "0", "--quiet"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ != 0) return;
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    int out = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int null = ::open("/dev/null", O_WRONLY);
    if (out < 0 || null < 0) ::_exit(127);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(null, STDERR_FILENO);
    ::execv(UNCHARTED_BIN_IEC104D, argv.data());
    ::_exit(127);
  }
  ~BackgroundDaemon() {
    if (pid_ > 0) stop();
    std::remove(stdout_path_.c_str());
  }
  BackgroundDaemon(const BackgroundDaemon&) = delete;
  BackgroundDaemon& operator=(const BackgroundDaemon&) = delete;

  bool started() const { return pid_ > 0; }

  /// Waits up to `timeout_s` for the daemon to exit on its own and returns
  /// its exit code; -1 if it had to be stopped or did not exit normally.
  int wait_exit(double timeout_s) {
    for (double waited = 0.0; waited < timeout_s; waited += 0.05) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return -1;
  }

 private:
  /// SIGTERM drains the daemon; one still running after 10 s is killed,
  /// so the test cannot hang on it.
  void stop() {
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 200; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }

  std::string stdout_path_;
  pid_t pid_ = -1;
};

/// The ephemeral port a BackgroundDaemon announces on stdout ("listening
/// on HOST:PORT", the same line scripts/soak.sh parses); empty if it never
/// does.
std::string announced_port(const std::string& stdout_path) {
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::ifstream in(stdout_path);
    std::string line;
    if (std::getline(in, line) && line.rfind("listening on ", 0) == 0) {
      port = line.substr(line.rfind(':') + 1);
    }
    if (port.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return port;
}

TEST(ExitCodes, FleetExitsZeroBenignAndThreeWhenHostileModesAreScripted) {
  // One background daemon serves every fleet run.
  const std::string out = temp_path("fleet_daemon.out");
  BackgroundDaemon daemon(out);
  ASSERT_TRUE(daemon.started());
  const std::string port = announced_port(out);
  ASSERT_FALSE(port.empty()) << "daemon never announced its port";

  const std::string connect = " --connect 127.0.0.1:" + port;
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) + connect +
                " --year 1 --duration 2 --clones 2 --quiet"),
            0);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) + connect +
                " --year 1 --duration 2 --garbage 1 --quiet"),
            3);
  // A --health fetch against a live daemon succeeds (contrast with the
  // unreachable-port 1 above).
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) + connect + " --health"), 0);
}

TEST(ExitCodes, FleetExitsTwoWhenTheDaemonClosesAStreamShortOfItsFrames) {
  // A 2-s replay finishes streams 1..N. A 4-s replay of the same fleet then
  // re-registers those ids, and the daemon answers "finished" with a
  // cursor short of each stream's frame count: those frames never reach
  // the report, so the fleet reports lost streams (2), not success.
  const std::string out = temp_path("lost_daemon.out");
  BackgroundDaemon daemon(out);
  ASSERT_TRUE(daemon.started());
  const std::string port = announced_port(out);
  ASSERT_FALSE(port.empty()) << "daemon never announced its port";

  const std::string fleet =
      quoted(UNCHARTED_BIN_IEC104_FLEET) + " --connect 127.0.0.1:" + port;
  EXPECT_EQ(run(fleet + " --year 1 --duration 2 --quiet"), 0);
  EXPECT_EQ(run(fleet + " --year 1 --duration 4 --quiet"), 2);
}

TEST(ExitCodes, DaemonExitsTwoWhenItCondemnsASilentStream) {
  // A data stream that says hello and then sends nothing gates the
  // watermark merge until the merge watchdog condemns it. Whatever it had
  // yet to send is lost, so the daemon ends degraded (2), not clean.
  const std::string out = temp_path("condemn_daemon.out");
  BackgroundDaemon daemon(out, {"--run-for", "3", "--watchdog-poll", "0.02",
                                "--watchdog-merge", "0.3"});
  ASSERT_TRUE(daemon.started());
  const std::string port = announced_port(out);
  ASSERT_FALSE(port.empty()) << "daemon never announced its port";

  const int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(std::stoi(port)));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(silent, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  uncharted::ByteWriter hello;
  uncharted::netd::wire::encode_hello(
      hello, {uncharted::netd::wire::HelloKind::kData, 9000, 0});
  ASSERT_EQ(::send(silent, hello.view().data(), hello.size(), 0),
            static_cast<ssize_t>(hello.size()));

  // The fleet's frames release once the silent stream is condemned.
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) + " --connect 127.0.0.1:" + port +
                " --year 1 --duration 2 --pace 0 --quiet"),
            0);
  EXPECT_EQ(daemon.wait_exit(30.0), 2);
  ::close(silent);
}

}  // namespace
