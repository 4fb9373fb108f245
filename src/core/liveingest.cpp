#include "core/liveingest.hpp"

#include <algorithm>
#include <cstdio>

#include "core/checkpoint.hpp"
#include "core/export.hpp"
#include "util/strings.hpp"

namespace uncharted::core {

namespace {

/// Composed-checkpoint payload magic: cursors + analyzer state follow.
constexpr std::uint32_t kLiveMagic = 0x554E4C44;  // "UNLD"

std::uint64_t enforcement_total(const analysis::ResourcePressure& p) {
  return p.flow_evictions + p.reassembly_flushes + p.records_evicted +
         p.parsers_evicted;
}

std::string lane_name(std::size_t shard) {
  return "lane/" + std::to_string(shard);
}

std::string fmt_stalled(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", s);
  return buf;
}

}  // namespace

LiveIngestDaemon::LiveIngestDaemon(netd::Reactor& reactor, LiveIngestOptions options)
    : reactor_(reactor),
      options_(std::move(options)),
      health_(options_.watchdog.clock) {
  // The daemon owns the checkpoint file; the analyzer must never write its
  // own half alone (the halves would stop being mutually consistent).
  checkpoint_path_ = options_.streaming.checkpoint_path;
  options_.streaming.checkpoint_path.clear();
  options_.streaming.checkpoint_every_packets = 0;
  rebuild_engine();
  register_watchdogs();
}

LiveIngestDaemon::~LiveIngestDaemon() {
  if (checkpoint_timer_armed_) reactor_.cancel_timer(checkpoint_timer_);
  if (pressure_timer_armed_) reactor_.cancel_timer(pressure_timer_);
  if (watchdog_timer_armed_) reactor_.cancel_timer(watchdog_timer_);
}

void LiveIngestDaemon::rebuild_engine() {
  // Order matters: the server's sink captures analyzer_ by reference, so
  // the old server must die before the analyzer it feeds is replaced.
  server_.reset();
  analyzer_ = std::make_unique<StreamingAnalyzer>(options_.streaming);
  server_ = std::make_unique<netd::IngestServer>(
      reactor_, options_.server,
      [this](std::uint64_t, const net::CapturedPacket& pkt) {
        analyzer_->add_packet(pkt);
      });
}

void LiveIngestDaemon::install_handlers() {
  server_->set_query_handler([this] { return report_json(); });
  server_->set_health_handler([this] { return health_json(); });
}

void LiveIngestDaemon::register_watchdogs() {
  const LiveWatchdogOptions& wd = options_.watchdog;
  health_.configure_breaker(wd.breaker);
  health_.add("reactor", {wd.reactor_deadline_s, {health::Action::kObserve}});
  health_.add("merge", {wd.merge_deadline_s, {health::Action::kCondemnStream}});
  const std::size_t shards = analyzer_->lane_stats().size();
  for (std::size_t s = 0; s < shards; ++s) {
    health_.add(lane_name(s),
                {wd.lane_deadline_s,
                 {health::Action::kRestartLane, health::Action::kRestartLane,
                  health::Action::kSelfTerminate}});
  }
  double ckpt_deadline = wd.checkpoint_deadline_s;
  if (ckpt_deadline <= 0.0 && options_.checkpoint_every_s > 0.0) {
    ckpt_deadline = std::max(3.0 * options_.checkpoint_every_s, 30.0);
  }
  health_.add("checkpoint",
              {ckpt_deadline,
               {health::Action::kRestartCheckpoint,
                health::Action::kRestartCheckpoint, health::Action::kSelfTerminate}});
  // Heartbeat only: a quiet query socket is normal, never a stall.
  health_.add("query", {0.0, {}});
}

Status LiveIngestDaemon::try_restore_composed() {
  auto payload = read_latest_checkpoint(checkpoint_path_);
  if (!payload) return payload.error();
  ByteReader r(payload.value());
  auto magic = r.u32le();
  if (!magic || magic.value() != kLiveMagic) {
    return Error{"liveingest-magic", "not a live-ingest checkpoint"};
  }
  if (auto st = server_->load_cursors(r); !st) return st;
  if (auto st = analyzer_->load_state(r); !st) return st;
  return Status::Ok();
}

Status LiveIngestDaemon::start(bool restore) {
  if (restore && !checkpoint_path_.empty()) {
    if (auto st = try_restore_composed(); st) {
      restored_ = true;
    } else {
      // Any invalid/mismatched checkpoint: rebuild both halves fresh so a
      // partial load can never leave them inconsistent.
      rebuild_engine();
    }
  }
  install_handlers();
  if (auto st = server_->start(); !st) return st;
  if (options_.checkpoint_every_s > 0.0 && !checkpoint_path_.empty()) {
    arm_checkpoint_timer();
  }
  if (options_.pressure_poll_s > 0.0) arm_pressure_timer();
  if (options_.watchdog.poll_s > 0.0) arm_watchdog_timer();
  return Status::Ok();
}

void LiveIngestDaemon::arm_checkpoint_timer() {
  checkpoint_timer_ = reactor_.add_timer_after(options_.checkpoint_every_s, [this] {
    checkpoint_timer_armed_ = false;
    if (finalized_) return;
    // A failed periodic write degrades durability, not availability:
    // checkpoint_now() records it and the next interval retries.
    (void)checkpoint_now();
    arm_checkpoint_timer();
  });
  checkpoint_timer_armed_ = true;
}

void LiveIngestDaemon::arm_watchdog_timer() {
  watchdog_timer_ = reactor_.add_timer_after(options_.watchdog.poll_s, [this] {
    watchdog_timer_armed_ = false;
    if (finalized_) return;
    poll_watchdogs();
    if (!terminate_requested_) arm_watchdog_timer();
  });
  watchdog_timer_armed_ = true;
}

void LiveIngestDaemon::arm_pressure_timer() {
  pressure_timer_ = reactor_.add_timer_after(options_.pressure_poll_s, [this] {
    pressure_timer_armed_ = false;
    if (finalized_) return;
    poll_pressure();
    arm_pressure_timer();
  });
  pressure_timer_armed_ = true;
}

void LiveIngestDaemon::poll_pressure() {
  const analysis::ResourcePressure now = analyzer_->pressure();
  const bool enforcing = enforcement_total(now) > enforcement_total(last_pressure_);
  last_pressure_ = now;
  if (enforcing) {
    // The analyzer is actively shedding its own state: shrink the ingest
    // buffer budget so the front door sheds connections first.
    calm_polls_ = 0;
    pressure_level_ = pressure_level_ >= 2 ? 2 : pressure_level_ + 1;
    server_->set_pressure_level(pressure_level_);
  } else if (pressure_level_ > 0 && ++calm_polls_ >= 2) {
    calm_polls_ = 0;
    pressure_level_--;
    server_->set_pressure_level(pressure_level_);
  }
}

void LiveIngestDaemon::poll_watchdogs() {
  // Drain packets whose shard is no longer wedged before measuring lanes,
  // so a cleared stall shows up as progress on this very poll.
  analyzer_->poll_deferred();
  const netd::ServerStats& stats = server_->stats();
  health_.publish("reactor", stats.ticks);
  health_.set_demand("reactor", 1);
  health_.publish("merge", stats.frames_released);
  // Queued bytes behind a closed release gate are peers yet to say hello —
  // expected, not a merge stall.
  health_.set_demand("merge",
                     server_->release_gate_open() ? stats.queued_bytes : 0);
  const auto lanes = analyzer_->lane_stats();
  for (std::size_t s = 0; s < lanes.size(); ++s) {
    health_.publish(lane_name(s), lanes[s].ingested);
    health_.set_demand(lane_name(s), lanes[s].queued_packets);
  }
  health_.publish("checkpoint", checkpoint_successes_);
  // A checkpoint is "due" only while the cadence is on and the analyzer is
  // quiescent; parked packets make the writer *unable*, and the lane
  // watchdog — not this one — owns that stall.
  const bool checkpoint_due =
      options_.checkpoint_every_s > 0.0 && !checkpoint_path_.empty() &&
      analyzer_->quiescent();
  health_.set_demand("checkpoint", checkpoint_due ? 1 : 0);
  health_.publish("query", stats.queries_served);
  for (const auto& ev : health_.evaluate()) {
    execute_recovery(ev);
    if (terminate_requested_) break;
  }
}

void LiveIngestDaemon::execute_recovery(const health::StallEvent& ev) {
  bool ok = false;
  std::string detail;
  switch (ev.action) {
    case health::Action::kObserve:
      ok = true;
      detail = "progress late by " + fmt_stalled(ev.stalled_for_s) +
               "s; observing";
      break;
    case health::Action::kCondemnStream: {
      const std::uint64_t id = server_->condemn_watermark_laggard(
          "health: watermark stalled " + fmt_stalled(ev.stalled_for_s) + "s");
      ok = id != 0;
      detail = ok ? "condemned watermark laggard stream " + std::to_string(id)
                  : "no stream gating the watermark";
      break;
    }
    case health::Action::kRestartLane: {
      auto st = recover_from_checkpoint(ev.subsystem);
      ok = static_cast<bool>(st);
      detail = ok ? (restored_ ? "engine restarted from checkpoint"
                               : "engine restarted fresh (no checkpoint)")
                  : "engine restart failed: " + st.error().str();
      break;
    }
    case health::Action::kRestartCheckpoint: {
      if (checkpoint_timer_armed_) {
        reactor_.cancel_timer(checkpoint_timer_);
        checkpoint_timer_armed_ = false;
      }
      auto st = checkpoint_now();
      ok = static_cast<bool>(st);
      detail = ok ? "checkpoint writer restarted; snapshot written"
                  : "checkpoint retry failed: " + st.error().str();
      if (options_.checkpoint_every_s > 0.0 && !checkpoint_path_.empty()) {
        arm_checkpoint_timer();
      }
      break;
    }
    case health::Action::kSelfTerminate:
      ok = true;
      terminate_requested_ = true;
      terminate_reason_ = ev.subsystem + " stalled " +
                          fmt_stalled(ev.stalled_for_s) +
                          "s; recovery ladder exhausted";
      detail = "self-terminate requested (exit " +
               std::to_string(health::kRecoveryExitCode) + " for supervisor restart)";
      break;
  }
  health_.record_recovery(ev.subsystem, ev.action, ok, detail);
  if (recovery_hook_) recovery_hook_(ev, ok, detail);
}

Status LiveIngestDaemon::recover_from_checkpoint(const std::string& why) {
  (void)why;
  // Keep the bound port across the restart (SO_REUSEADDR covers the
  // rebind); clients notice only a dropped connection and resume from the
  // restored cursors, exactly as after a process kill/restore.
  options_.server.port = server_->port();
  server_->close_all();
  rebuild_engine();
  restored_ = false;
  if (!checkpoint_path_.empty()) {
    if (auto st = try_restore_composed(); st) {
      restored_ = true;
    } else {
      rebuild_engine();
    }
  }
  install_handlers();
  return server_->start();
}

Status LiveIngestDaemon::checkpoint_now() {
  if (checkpoint_path_.empty()) {
    return Error{"checkpoint-unconfigured", "no checkpoint path set"};
  }
  Status st = [&]() -> Status {
    if (options_.stall_checkpoint) {
      return Error{"checkpoint-stalled", "checkpoint writer wedged by test knob"};
    }
    if (!analyzer_->quiescent()) {
      // Cursors count admitted packets; parked ones are absent from the
      // analyzer state. A snapshot now could never restore consistently.
      return Error{"checkpoint-deferred",
                   "packets parked behind a wedged shard"};
    }
    ByteWriter w;
    w.u32le(kLiveMagic);
    server_->save_cursors(w);
    if (auto s = analyzer_->save_state(w); !s) return s;
    return write_checkpoint_file(checkpoint_path_, w.view(), options_.sys);
  }();
  if (st) {
    // The on-disk snapshot is current again: clear the degradation flag.
    checkpoint_error_.clear();
    ++checkpoint_successes_;
  } else {
    ++checkpoint_failures_;
    checkpoint_error_ = st.error().str();
  }
  return st;
}

void LiveIngestDaemon::add_live_warnings(AnalysisReport& report,
                                         bool final_report) const {
  const netd::ServerStats& stats = server_->stats();
  if (stats.forced_releases > 0) {
    report.degradation.warnings.push_back(
        "live ingest degraded to sampling: " +
        format_count(stats.forced_releases) +
        " frames force-released past the deterministic watermark under "
        "memory pressure");
  }
  if (checkpoint_error_.empty()) return;
  report.degradation.warnings.push_back(
      final_report ? "checkpoint write failed: " + checkpoint_error_
                   : "checkpoint degraded: " + checkpoint_error_ +
                         " (last good snapshot retained; retrying next interval)");
}

std::string LiveIngestDaemon::report_json() {
  AnalysisReport report = analyzer_->report_snapshot();
  add_live_warnings(report, false);
  return report_to_json(report);
}

AnalysisReport LiveIngestDaemon::finalize() {
  finalized_ = true;
  if (checkpoint_timer_armed_) {
    reactor_.cancel_timer(checkpoint_timer_);
    checkpoint_timer_armed_ = false;
  }
  if (pressure_timer_armed_) {
    reactor_.cancel_timer(pressure_timer_);
    pressure_timer_armed_ = false;
  }
  if (watchdog_timer_armed_) {
    reactor_.cancel_timer(watchdog_timer_);
    watchdog_timer_armed_ = false;
  }
  server_->close_all();
  // The final write clears checkpoint_error_ on success, so the report
  // carries a warning only when the daemon genuinely ends degraded.
  if (!checkpoint_path_.empty()) (void)checkpoint_now();
  AnalysisReport report = analyzer_->finalize();
  add_live_warnings(report, true);
  return report;
}

}  // namespace uncharted::core
