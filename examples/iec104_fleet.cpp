// iec104_fleet: drives a fleet of tapstream clients against iec104d.
//
//   ./iec104_fleet --connect 127.0.0.1:2404 --year 1 --duration 600
//                  --clones 10 --garbage 2 --slow-loris 2 --pace 50
//
// Builds a deterministic fleet script (sim::build_fleet_script) from a
// synthesized capture or a pcap, then replays every stream concurrently
// with pacing, churn, seeded reconnect backoff, and hostile abuse modes.
// With --query it instead fetches the daemon's current report JSON and
// prints it; --health fetches the daemon's supervision (health) JSON.
//
// Exit codes follow the uniform CLI ladder: 0 all benign streams
// delivered and acknowledged with no hostile modes scripted, 1 usage or
// input error (or a failed --query/--health), 2 some benign stream failed
// permanently, 3 hostile modes were scripted (wins over 2 — the run
// deliberately impersonated attackers).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "net/mapping.hpp"
#include "net/pcap.hpp"
#include "netd/client.hpp"
#include "sim/capture.hpp"
#include "sim/fleet.hpp"

using namespace uncharted;

namespace {

netd::Reactor* g_reactor = nullptr;

void on_signal(int) {
  if (g_reactor != nullptr) g_reactor->notify_from_signal();
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --connect HOST:PORT [--query | --health]\n"
      "          [--pcap FILE | --year 1|2 [--duration SECONDS] [--seed N]]\n"
      "          [--clones N] [--hostile-content N] [--garbage N]\n"
      "          [--slow-loris N] [--pace FACTOR] [--churn P]\n"
      "          [--fleet-seed N] [--linger] [--retry-for SECONDS] [--quiet]\n",
      argv0);
}

bool split_host_port(const std::string& s, std::string* host, std::uint16_t* port) {
  auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) return false;
  const int p = std::atoi(s.c_str() + colon + 1);
  if (p <= 0 || p > 65535) return false;
  *host = s.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  netd::FleetConfig fleet;
  sim::FleetScriptConfig script_config;
  sim::CaptureConfig capture_config = sim::CaptureConfig::y1(600.0);
  std::string connect_arg;
  std::string pcap_path;
  bool query = false;
  bool health = false;
  bool quiet = false;
  bool seed_set = false;
  int year = 1;
  double duration = 600.0;
  std::uint64_t capture_seed = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      connect_arg = next();
    } else if (arg == "--query") {
      query = true;
    } else if (arg == "--health") {
      health = true;
    } else if (arg == "--pcap") {
      pcap_path = next();
    } else if (arg == "--year") {
      year = std::atoi(next());
    } else if (arg == "--duration") {
      duration = std::atof(next());
    } else if (arg == "--seed") {
      capture_seed = static_cast<std::uint64_t>(std::atoll(next()));
      seed_set = true;
    } else if (arg == "--clones") {
      script_config.clones = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--hostile-content") {
      script_config.hostile_content = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--garbage") {
      script_config.garbage = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--slow-loris") {
      script_config.slow_loris = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--pace") {
      fleet.pace = std::atof(next());
    } else if (arg == "--churn") {
      fleet.churn = std::atof(next());
    } else if (arg == "--fleet-seed") {
      fleet.seed = static_cast<std::uint64_t>(std::atoll(next()));
      script_config.seed = fleet.seed;
    } else if (arg == "--linger") {
      fleet.linger = true;
    } else if (arg == "--retry-for") {
      fleet.retry_for_s = std::atof(next());
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage(argv[0]);
      return 1;
    }
  }

  if (connect_arg.empty() ||
      !split_host_port(connect_arg, &fleet.host, &fleet.port)) {
    usage(argv[0]);
    return 1;
  }

  if (query || health) {
    auto json = health ? netd::fetch_health(fleet.host, fleet.port, 10.0)
                       : netd::fetch_report(fleet.host, fleet.port, 10.0);
    if (!json) {
      std::fprintf(stderr, "%s failed: %s\n", health ? "health query" : "query",
                   json.error().str().c_str());
      return 1;
    }
    std::printf("%s\n", json->c_str());
    return 0;
  }

  std::vector<net::CapturedPacket> packets;
  if (!pcap_path.empty()) {
    auto cannot_read = [&](const Error& error) {
      std::fprintf(stderr, "cannot read %s: %s\n", pcap_path.c_str(),
                   error.str().c_str());
      return 1;
    };
    auto mapping = net::PcapMapping::open(pcap_path);
    if (!mapping) return cannot_read(mapping.error());
    auto cursor = net::PcapCursor::open(mapping->bytes());
    if (!cursor) return cannot_read(cursor.error());
    // The fleet script owns its frames: each record is copied out once.
    net::FrameView frame;
    while (cursor->next(frame)) {
      packets.push_back({frame.ts, frame.original_length,
                         {frame.data.begin(), frame.data.end()}});
    }
    if (cursor->truncated_tail()) {
      std::fprintf(stderr, "warning: %s: %s; replaying the complete prefix\n",
                   pcap_path.c_str(), cursor->warning().c_str());
    }
  } else {
    capture_config =
        year == 2 ? sim::CaptureConfig::y2(duration) : sim::CaptureConfig::y1(duration);
    if (seed_set) capture_config.seed = capture_seed;
    packets = sim::generate_capture(capture_config).packets;
  }

  auto script = sim::build_fleet_script(packets, script_config);
  if (!quiet) {
    std::fprintf(stderr,
                 "fleet: %zu streams (%zu benign, %zu hostile), %llu frames\n",
                 script.streams.size(), script.benign_streams,
                 script.hostile_streams,
                 static_cast<unsigned long long>(script.total_frames));
  }

  netd::Reactor reactor;
  g_reactor = &reactor;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  reactor.set_wakeup_callback([&reactor] { reactor.stop(); });

  netd::FleetClient client(reactor, fleet, std::move(script.streams));
  client.start();
  // Declared at function scope: the timer callback re-registers `watch` by
  // reference, so it must outlive reactor.run().
  std::function<void()> watch;
  if (!fleet.linger) {
    // Lingering fleets run until a signal; plain fleets stop once every
    // stream reaches a terminal phase.
    watch = [&] {
      if (client.all_done()) {
        reactor.stop();
        return;
      }
      reactor.add_timer_after(0.02, watch);
    };
    reactor.add_timer_after(0.02, watch);
  }
  reactor.run();

  const auto& stats = client.stats();
  if (!quiet) {
    std::fprintf(stderr,
                 "done: sent=%llu finished=%llu reconnects=%llu "
                 "busy_retries=%llu failed=%llu lost=%llu\n",
                 static_cast<unsigned long long>(stats.frames_sent),
                 static_cast<unsigned long long>(stats.finished_streams),
                 static_cast<unsigned long long>(stats.reconnects),
                 static_cast<unsigned long long>(stats.busy_retries),
                 static_cast<unsigned long long>(stats.failed_streams),
                 static_cast<unsigned long long>(stats.lost_streams));
  }
  // The uniform exit ladder: hostile (3) wins over degraded (2).
  if (script.hostile_streams > 0) return 3;
  return client.all_benign_ok() ? 0 : 2;
}
