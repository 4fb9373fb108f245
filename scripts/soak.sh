#!/usr/bin/env bash
# Streaming kill/restore soak: the long-run resilience acceptance test.
#
# For each fault rate, this script
#   1. synthesizes a reproducible chaos capture (capture_generator --seed
#      --fault-rate, so any failure replays from the command line),
#   2. runs the batch reference (longrun_monitor without a checkpoint:
#      streaming with no restore is exactly the batch analyzer), once per
#      parse mode (per-segment, and --reassembled),
#   3. streams the same capture while repeatedly kill-9-ing the monitor
#      (--kill-after exits with no shutdown checkpoint, like a crash) and
#      restarting it from the last periodic checkpoint,
#   4. asserts the final headline metrics from the kill/restore run equal
#      the batch run. Checkpoint resume replays from an exact packet
#      cursor, so equality — stronger than the documented chaos drift
#      bounds (stations +/-1, flows +/-10%, same clusters) — must hold.
#
# A second phase soaks the live-ingest daemon (iec104d): a fleet of
# concurrent tapstream connections (UNCHARTED_SOAK_CONNS, default 500;
# the nightly CI job runs 10000), the daemon SIGKILL'd mid-ingest and
# restored from its checkpoint, and the final report byte-compared with
# an uninterrupted run at --threads 1 and 8 — plus a hostile fleet that
# must exit 3 with zero benign flows dropped, and a peak-RSS bound
# (UNCHARTED_SOAK_RSS_MB, default 1024).
#
# A third phase soaks the daemon's own syscall surface: iec104d is run
# with --sysfault-rate/--sysfault-seed/--sysfault-mode compound (seeded
# OS fault injection on read/write/accept/poll plus ENOSPC/EIO/torn
# rename on the checkpoint writer), SIGKILL'd mid-ingest, restored from
# whatever checkpoint survived the storage chaos, and the final report
# byte-compared with a fault-free run. Pinned seeds
# (UNCHARTED_SOAK_SYSFAULT_SEEDS, default "1 2 3") keep failures
# replayable from the command line.
#
# A fourth phase replays the full Y1 capture (1200 s, paper scale) live:
# iec104_fleet at --pace 0 (every frame due at once, so the daemon's merge
# queues deepest) and at --pace 8000, into iec104d at --threads 1 and 4,
# and byte-compares each final report with the batch JSON of the same
# capture (longrun_monitor --threads 1 --report). Wall times are printed.
#
# An opt-in fifth phase (UNCHARTED_SOAK_STALL=1) wedges the daemon's
# checkpoint writer and asserts the health watchdog climbs its recovery
# ladder: restart-checkpoint twice, then self-terminate with exit 4 while
# the health query socket keeps answering.
#
# Usage: scripts/soak.sh [--duration SECONDS] [--rates "0 0.01 0.05 0.20"]
#                        [--seed N] [--build-dir DIR] [--kill-step PACKETS]
#                        [--daemon-conns N] [--daemon-only] [--skip-daemon]
#                        [--skip-sysfault]
set -euo pipefail
cd "$(dirname "$0")/.."

duration=600
rates="0 0.01 0.05 0.20"
seed=7
build_dir=build-release
kill_step=20000
daemon_conns="${UNCHARTED_SOAK_CONNS:-500}"
rss_bound_mb="${UNCHARTED_SOAK_RSS_MB:-1024}"
daemon_only=0
skip_daemon=0
skip_sysfault=0
sysfault_rate="${UNCHARTED_SOAK_SYSFAULT_RATE:-0.02}"
sysfault_seeds="${UNCHARTED_SOAK_SYSFAULT_SEEDS:-1 2 3}"
soak_stall="${UNCHARTED_SOAK_STALL:-0}"
stall_poll="${UNCHARTED_SOAK_STALL_POLL:-0.1}"
stall_deadline="${UNCHARTED_SOAK_STALL_DEADLINE:-1}"

while [ $# -gt 0 ]; do
  case "$1" in
    --duration)     duration="$2"; shift 2 ;;
    --rates)        rates="$2"; shift 2 ;;
    --seed)         seed="$2"; shift 2 ;;
    --build-dir)    build_dir="$2"; shift 2 ;;
    --kill-step)    kill_step="$2"; shift 2 ;;
    --daemon-conns) daemon_conns="$2"; shift 2 ;;
    --daemon-only)  daemon_only=1; shift ;;
    --skip-daemon)  skip_daemon=1; shift ;;
    --skip-sysfault) skip_sysfault=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

gen="$build_dir/examples/capture_generator"
mon="$build_dir/examples/longrun_monitor"
daemon_bin="$build_dir/examples/iec104d"
fleet_bin="$build_dir/examples/iec104_fleet"
needed="$gen $mon $daemon_bin $fleet_bin"
[ "$skip_daemon" -eq 1 ] && needed="$gen $mon"
for bin in $needed; do
  if [ ! -x "$bin" ]; then
    echo "missing $bin — build the examples first (cmake --preset release)" >&2
    exit 2
  fi
done

# UNCHARTED_SOAK_WORKDIR keeps every daemon stderr log, health JSON and
# report in a caller-chosen directory that survives the run — CI uploads
# it as a failure artifact. Unset, a throwaway tmpdir is cleaned on exit.
if [ -n "${UNCHARTED_SOAK_WORKDIR:-}" ]; then
  workdir="$UNCHARTED_SOAK_WORKDIR"
  mkdir -p "$workdir"
else
  workdir="$(mktemp -d "${TMPDIR:-/tmp}/soak.XXXXXX")"
  trap 'rm -rf "$workdir"' EXIT
fi

failures=0
[ "$daemon_only" -eq 1 ] && rates=""
for rate in $rates; do
  pcap="$workdir/soak_$rate.pcap"
  "$gen" --year 1 --duration "$duration" --seed "$seed" \
         --fault-rate "$rate" --fault-seed "$seed" --out "$pcap" >/dev/null

  # Both parse modes: per-segment, and --reassembled, whose checkpoints
  # also carry the TCP reassembler's state and stream counters.
  for mode in per-segment reassembled; do
    mode_flag=""
    [ "$mode" = reassembled ] && mode_flag="--reassembled"
    echo "==> soak @ fault rate $rate, $mode (duration ${duration}s, seed $seed)"
    ckpt="$workdir/soak_${rate}_$mode.ckpt"

    # Exit 2 (degraded) and 3 (hostile) still mean "analysis completed" —
    # fault-injected captures are degraded by construction.
    rc=0
    batch="$("$mon" --pcap "$pcap" $mode_flag --quiet)" || rc=$?
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ] && [ "$rc" -ne 3 ]; then
      echo "    FAIL: batch monitor exited $rc at rate $rate ($mode)" >&2
      failures=$((failures + 1))
      continue
    fi
    echo "    batch:    $batch"

    # Kill/restore loop: each incarnation dies $kill_step packets further
    # in, until one survives to the end of the capture.
    kill_after=$kill_step
    restarts=0
    while :; do
      rc=0
      out="$("$mon" --pcap "$pcap" $mode_flag --checkpoint "$ckpt" --interval 2000 \
                    --kill-after "$kill_after" --quiet)" || rc=$?
      if [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ] || [ "$rc" -eq 3 ]; then
        streamed="$(printf '%s\n' "$out" | tail -n 1)"
        break
      elif [ "$rc" -eq 42 ]; then
        restarts=$((restarts + 1))
        kill_after=$((kill_after + kill_step))
      else
        echo "    FAIL: monitor crashed for real (exit $rc) at rate $rate ($mode)" >&2
        printf '%s\n' "$out" >&2
        failures=$((failures + 1))
        streamed=""
        break
      fi
    done
    [ -n "$streamed" ] || continue
    echo "    streamed: $streamed  (survived $restarts kills)"

    if [ "$streamed" != "$batch" ]; then
      echo "    FAIL: kill/restore run diverged from batch at rate $rate ($mode)" >&2
      failures=$((failures + 1))
    fi
  done
done

# ---------------------------------------------------------------------------
# Daemon soak: live ingest under kill/restore, overload, and hostile peers
# ---------------------------------------------------------------------------

# Polls a daemon's captured stdout for its "listening on ADDR:PORT" line.
wait_for_port() {
  local out_file="$1" p=""
  for _ in $(seq 1 100); do
    p="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$out_file" | head -n 1)"
    if [ -n "$p" ]; then echo "$p"; return 0; fi
    sleep 0.1
  done
  return 1
}

# Tracks a process's peak VmRSS (KiB) into a file until it exits.
sample_rss() {
  local pid="$1" out_file="$2" max=0 cur
  while kill -0 "$pid" 2>/dev/null; do
    cur="$(awk '/^VmRSS:/{print $2}' "/proc/$pid/status" 2>/dev/null || true)"
    if [ -n "$cur" ] && [ "$cur" -gt "$max" ]; then max="$cur"; fi
    echo "$max" >"$out_file"
    sleep 0.2
  done
}

check_rss() {
  local rss_file="$1" what="$2"
  local kib
  kib="$(cat "$rss_file" 2>/dev/null || echo 0)"
  echo "    peak RSS ($what): $((kib / 1024)) MiB (bound ${rss_bound_mb} MiB)"
  if [ "$((kib / 1024))" -gt "$rss_bound_mb" ]; then
    echo "    FAIL: $what peak RSS exceeded ${rss_bound_mb} MiB" >&2
    failures=$((failures + 1))
  fi
}

daemon_soak() {
  ulimit -n 65536 2>/dev/null || true
  local dur=10

  # Probe the deterministic fleet shape (connection refused on the discard
  # port fails fast; only the header line matters).
  local probe base_streams
  probe="$("$fleet_bin" --connect 127.0.0.1:9 --year 1 --duration "$dur" \
             --seed "$seed" --retry-for 0 2>&1 || true)"
  base_streams="$(printf '%s\n' "$probe" |
                  sed -n 's/^fleet: \([0-9][0-9]*\) streams.*/\1/p')"
  if [ -z "$base_streams" ] || [ "$base_streams" -eq 0 ]; then
    echo "    FAIL: cannot probe fleet shape" >&2
    failures=$((failures + 1))
    return
  fi
  local clones=$(( (daemon_conns + base_streams - 1) / base_streams ))
  [ "$clones" -ge 1 ] || clones=1
  probe="$("$fleet_bin" --connect 127.0.0.1:9 --year 1 --duration "$dur" \
             --seed "$seed" --clones "$clones" --retry-for 0 2>&1 || true)"
  local streams frames
  streams="$(printf '%s\n' "$probe" |
             sed -n 's/^fleet: \([0-9][0-9]*\) streams.*/\1/p')"
  frames="$(printf '%s\n' "$probe" |
            sed -n 's/^fleet: .*, \([0-9][0-9]*\) frames$/\1/p')"
  echo "==> daemon soak: $streams concurrent streams ($clones clones), $frames frames"

  local threads
  for threads in 1 8; do
    echo "==> daemon kill/restore equivalence @ --threads $threads"
    local ref="$workdir/daemon_ref_t$threads.json"
    local killed="$workdir/daemon_killed_t$threads.json"
    local dckpt="$workdir/daemon_t$threads.ckpt"
    local port rc

    # Uninterrupted reference run.
    : >"$workdir/dref.out"
    "$daemon_bin" --port 0 --threads "$threads" --expect-streams "$streams" \
        --drain-when-done --run-for 900 --report "$ref" --quiet \
        >"$workdir/dref.out" 2>&1 &
    local dref=$!
    port="$(wait_for_port "$workdir/dref.out")" || {
      echo "    FAIL: reference daemon never listened" >&2
      failures=$((failures + 1)); kill "$dref" 2>/dev/null || true; continue
    }
    sample_rss "$dref" "$workdir/rss_ref" &
    local rss_watch=$!
    "$fleet_bin" --connect "127.0.0.1:$port" --year 1 --duration "$dur" \
        --seed "$seed" --clones "$clones" --quiet || {
      echo "    FAIL: reference fleet dropped benign flows" >&2
      failures=$((failures + 1))
    }
    rc=0; wait "$dref" || rc=$?
    wait "$rss_watch" 2>/dev/null || true
    if [ "$rc" -ne 0 ]; then
      echo "    FAIL: reference daemon exited $rc (want 0)" >&2
      failures=$((failures + 1)); continue
    fi
    check_rss "$workdir/rss_ref" "reference daemon t$threads"

    # Killed + restored run against a lingering fleet on the same port.
    rm -f "$dckpt" "$dckpt.1"
    : >"$workdir/dkill.out"
    "$daemon_bin" --port 0 --threads "$threads" --expect-streams "$streams" \
        --checkpoint "$dckpt" --interval 0.2 --run-for 900 \
        --kill-after-frames $((frames / 3)) --quiet \
        >"$workdir/dkill.out" 2>&1 &
    local d1=$!
    port="$(wait_for_port "$workdir/dkill.out")" || {
      echo "    FAIL: daemon (pre-kill) never listened" >&2
      failures=$((failures + 1)); kill "$d1" 2>/dev/null || true; continue
    }
    "$fleet_bin" --connect "127.0.0.1:$port" --year 1 --duration "$dur" \
        --seed "$seed" --clones "$clones" --linger --quiet \
        >/dev/null 2>&1 &
    local fpid=$!
    sample_rss "$d1" "$workdir/rss_d1" &
    rss_watch=$!
    rc=0; wait "$d1" || rc=$?
    wait "$rss_watch" 2>/dev/null || true
    if [ "$rc" -ne 42 ]; then
      echo "    FAIL: daemon did not simulate the crash (exit $rc, want 42)" >&2
      failures=$((failures + 1))
      kill -TERM "$fpid" 2>/dev/null || true; wait "$fpid" 2>/dev/null || true
      continue
    fi
    check_rss "$workdir/rss_d1" "killed daemon t$threads"

    "$daemon_bin" --port "$port" --threads "$threads" \
        --expect-streams "$streams" --checkpoint "$dckpt" --restore \
        --drain-when-done --run-for 900 --report "$killed" --quiet \
        >"$workdir/drestore.out" 2>&1 &
    local d2=$!
    sample_rss "$d2" "$workdir/rss_d2" &
    rss_watch=$!
    rc=0; wait "$d2" || rc=$?
    wait "$rss_watch" 2>/dev/null || true
    if [ "$rc" -ne 0 ]; then
      echo "    FAIL: restored daemon exited $rc (want 0)" >&2
      cat "$workdir/drestore.out" >&2
      failures=$((failures + 1))
      kill -TERM "$fpid" 2>/dev/null || true; wait "$fpid" 2>/dev/null || true
      continue
    fi
    check_rss "$workdir/rss_d2" "restored daemon t$threads"

    # Zero dropped benign flows across the kill: the lingering fleet must
    # still report every benign stream acknowledged.
    kill -TERM "$fpid" 2>/dev/null || true
    rc=0; wait "$fpid" || rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "    FAIL: fleet dropped benign flows across the kill (exit $rc)" >&2
      failures=$((failures + 1)); continue
    fi

    if cmp -s "$ref" "$killed"; then
      echo "    kill/restore report == uninterrupted report (--threads $threads)"
    else
      echo "    FAIL: restored report diverged at --threads $threads" >&2
      failures=$((failures + 1))
    fi
  done

  # Hostile fleet: content attacks, garbage hellos, slow-loris dribbles.
  # Both binaries follow the uniform exit ladder: the daemon must exit 3
  # (hostile traffic analyzed) and the fleet must exit 3 too (hostile
  # modes scripted) — benign losslessness is asserted from its stats line
  # (failed=0 lost=0), not its exit code. Garbage peers never say hello,
  # so they are not counted in --expect-streams.
  echo "==> daemon hostile fleet (content=2 garbage=2 slow-loris=2)"
  local hn hexpect port rc fout
  hn="$("$fleet_bin" --connect 127.0.0.1:9 --year 1 --duration "$dur" \
          --seed "$seed" --hostile-content 2 --garbage 2 --slow-loris 2 \
          --retry-for 0 2>&1 || true)"
  hn="$(printf '%s\n' "$hn" | sed -n 's/^fleet: \([0-9][0-9]*\) streams.*/\1/p')"
  hexpect=$((hn - 2))
  : >"$workdir/dhost.out"
  "$daemon_bin" --port 0 --threads 8 --expect-streams "$hexpect" \
      --drain-when-done --run-for 120 --handshake-timeout 2 --read-timeout 2 \
      --idle-timeout 5 --report "$workdir/hostile.json" --quiet \
      >"$workdir/dhost.out" 2>&1 &
  local dh=$!
  port="$(wait_for_port "$workdir/dhost.out")" || {
    echo "    FAIL: hostile-phase daemon never listened" >&2
    failures=$((failures + 1)); kill "$dh" 2>/dev/null || true; return
  }
  rc=0
  fout="$("$fleet_bin" --connect "127.0.0.1:$port" --year 1 --duration "$dur" \
      --seed "$seed" --hostile-content 2 --garbage 2 --slow-loris 2 \
      2>&1)" || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "    FAIL: hostile-phase fleet exit $rc (want 3: hostile modes scripted)" >&2
    failures=$((failures + 1))
  fi
  if ! printf '%s\n' "$fout" | grep -q 'failed=0 lost=0$'; then
    echo "    FAIL: hostile-phase fleet dropped benign flows" >&2
    printf '%s\n' "$fout" >&2
    failures=$((failures + 1))
  fi
  rc=0; wait "$dh" || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "    FAIL: daemon exit $rc under hostile fleet (want 3)" >&2
    failures=$((failures + 1))
  else
    echo "    hostile fleet flagged (exit 3 both sides), zero benign flows dropped"
  fi
}

# ---------------------------------------------------------------------------
# Stall soak: a wedged checkpoint writer must climb the recovery ladder
# (opt-in: UNCHARTED_SOAK_STALL=1 — the gtest chaos suite covers the stall
# classes deterministically; this phase proves the shipped binary's knobs)
# ---------------------------------------------------------------------------

stall_soak() {
  echo "==> stall soak: wedged checkpoint writer (restart ×2 -> exit 4)"
  local sckpt="$workdir/stall.ckpt" port rc
  : >"$workdir/dstall.out"
  "$daemon_bin" --port 0 --threads 8 --checkpoint "$sckpt" --interval 0.1 \
      --stall-checkpoint --watchdog-poll "$stall_poll" \
      --watchdog-checkpoint "$stall_deadline" --run-for 120 \
      >"$workdir/dstall.out" 2>&1 &
  local d=$!
  port="$(wait_for_port "$workdir/dstall.out")" || {
    echo "    FAIL: stall-phase daemon never listened" >&2
    failures=$((failures + 1)); kill "$d" 2>/dev/null || true; return
  }
  # The health endpoint must answer while the daemon is stalled.
  if ! "$fleet_bin" --connect "127.0.0.1:$port" --health \
        >"$workdir/stall_health.json" 2>/dev/null; then
    echo "    FAIL: health query refused during the stall" >&2
    failures=$((failures + 1))
  fi
  rc=0; wait "$d" || rc=$?
  if [ "$rc" -ne 4 ]; then
    echo "    FAIL: stalled daemon exited $rc (want 4: supervisor restart)" >&2
    cat "$workdir/dstall.out" >&2
    failures=$((failures + 1)); return
  fi
  if ! grep -q 'restart-checkpoint' "$workdir/dstall.out"; then
    echo "    FAIL: no restart-checkpoint rung in the recovery ledger" >&2
    failures=$((failures + 1)); return
  fi
  echo "    ladder climbed: restart-checkpoint ×2 -> self-terminate (exit 4)"
}

# ---------------------------------------------------------------------------
# Sysfault soak: the daemon attacking its own syscalls (compound chaos)
# ---------------------------------------------------------------------------

sysfault_soak() {
  local dur=10 threads=8

  # Probe the deterministic fleet shape (same trick as daemon_soak; a
  # single clone keeps this phase short — the gtest chaos soak covers the
  # seed x thread matrix, this phase proves the shipped binary's knobs).
  local probe streams frames
  probe="$("$fleet_bin" --connect 127.0.0.1:9 --year 1 --duration "$dur" \
             --seed "$seed" --retry-for 0 2>&1 || true)"
  streams="$(printf '%s\n' "$probe" |
             sed -n 's/^fleet: \([0-9][0-9]*\) streams.*/\1/p')"
  frames="$(printf '%s\n' "$probe" |
            sed -n 's/^fleet: .*, \([0-9][0-9]*\) frames$/\1/p')"
  if [ -z "$streams" ] || [ "$streams" -eq 0 ]; then
    echo "    FAIL: cannot probe fleet shape for the sysfault phase" >&2
    failures=$((failures + 1))
    return
  fi
  echo "==> sysfault soak: $streams streams, $frames frames," \
       "compound rate $sysfault_rate, seeds {$sysfault_seeds}"

  # Fault-free reference report.
  local sref="$workdir/sysfault_ref.json" port rc
  : >"$workdir/sref.out"
  "$daemon_bin" --port 0 --threads "$threads" --expect-streams "$streams" \
      --drain-when-done --run-for 900 --report "$sref" --quiet \
      >"$workdir/sref.out" 2>&1 &
  local dref=$!
  port="$(wait_for_port "$workdir/sref.out")" || {
    echo "    FAIL: sysfault reference daemon never listened" >&2
    failures=$((failures + 1)); kill "$dref" 2>/dev/null || true; return
  }
  "$fleet_bin" --connect "127.0.0.1:$port" --year 1 --duration "$dur" \
      --seed "$seed" --quiet || {
    echo "    FAIL: sysfault reference fleet dropped benign flows" >&2
    failures=$((failures + 1))
  }
  rc=0; wait "$dref" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "    FAIL: sysfault reference daemon exited $rc (want 0)" >&2
    failures=$((failures + 1)); return
  fi

  local sfseed
  for sfseed in $sysfault_seeds; do
    echo "==> sysfault kill/restore @ seed $sfseed (rate $sysfault_rate, compound)"
    local sckpt="$workdir/sysfault_s$sfseed.ckpt"
    local sout="$workdir/sysfault_s$sfseed.json"
    rm -f "$sckpt" "$sckpt.1"

    # Pre-kill incarnation: ingest a third of the capture under fire.
    # Periodic checkpoints race the storage faults; any generation that
    # lands whole is enough for the restore.
    : >"$workdir/skill.out"
    "$daemon_bin" --port 0 --threads "$threads" --expect-streams "$streams" \
        --checkpoint "$sckpt" --interval 0.2 --run-for 900 \
        --kill-after-frames $((frames / 3)) \
        --sysfault-rate "$sysfault_rate" --sysfault-seed "$sfseed" \
        --sysfault-mode compound --quiet \
        >"$workdir/skill.out" 2>&1 &
    local d1=$!
    port="$(wait_for_port "$workdir/skill.out")" || {
      echo "    FAIL: sysfault daemon (pre-kill) never listened" >&2
      failures=$((failures + 1)); kill "$d1" 2>/dev/null || true; continue
    }
    "$fleet_bin" --connect "127.0.0.1:$port" --year 1 --duration "$dur" \
        --seed "$seed" --linger --retry-for 300 --quiet \
        >/dev/null 2>&1 &
    local fpid=$!
    rc=0; wait "$d1" || rc=$?
    if [ "$rc" -ne 42 ]; then
      echo "    FAIL: sysfault daemon did not simulate the crash (exit $rc, want 42)" >&2
      cat "$workdir/skill.out" >&2
      failures=$((failures + 1))
      kill -TERM "$fpid" 2>/dev/null || true; wait "$fpid" 2>/dev/null || true
      continue
    fi

    # Restore on the same port, still under fire, and drain to a report.
    rc=0
    "$daemon_bin" --port "$port" --threads "$threads" \
        --expect-streams "$streams" --checkpoint "$sckpt" --restore \
        --drain-when-done --run-for 900 --report "$sout" \
        --sysfault-rate "$sysfault_rate" --sysfault-seed "$sfseed" \
        --sysfault-mode compound --quiet \
        >"$workdir/srestore.out" 2>&1 || rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "    FAIL: restored sysfault daemon exited $rc (want 0)" >&2
      cat "$workdir/srestore.out" >&2
      failures=$((failures + 1))
      kill -TERM "$fpid" 2>/dev/null || true; wait "$fpid" 2>/dev/null || true
      continue
    fi

    kill -TERM "$fpid" 2>/dev/null || true
    rc=0; wait "$fpid" || rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "    FAIL: fleet dropped benign flows under syscall chaos (exit $rc)" >&2
      failures=$((failures + 1)); continue
    fi

    # The fault ledger (stderr summary) proves the chaos actually fired.
    local ledger
    ledger="$(sed -n 's/^sysfault: //p' "$workdir/srestore.out" | head -n 1)"
    echo "    faults injected: ${ledger:-none reported}"
    if [ -z "$ledger" ] || [ "$ledger" = "clean" ]; then
      echo "    FAIL: sysfault run injected nothing at seed $sfseed" >&2
      failures=$((failures + 1))
    fi

    if cmp -s "$sref" "$sout"; then
      echo "    sysfault kill/restore report == fault-free report (seed $sfseed)"
    else
      echo "    FAIL: report diverged under syscall chaos at seed $sfseed" >&2
      failures=$((failures + 1))
    fi
  done
}

# ---------------------------------------------------------------------------
# Full-Y1 soak: a paper-scale live replay equals batch
# ---------------------------------------------------------------------------

full_y1_soak() {
  local dur=1200
  local pcap="$workdir/full_y1.pcap" batch="$workdir/full_y1_batch.json"
  echo "==> full-Y1 live soak (${dur}s capture, seed $seed)"
  "$gen" --year 1 --duration "$dur" --seed "$seed" --out "$pcap" >/dev/null
  # The batch exit code (0, or 2/3 for a degraded or hostile report) is
  # also what the daemon must exit with: the same report, the same verdict.
  local brc=0
  "$mon" --pcap "$pcap" --threads 1 --report "$batch" --quiet >/dev/null || brc=$?
  if { [ "$brc" -ne 0 ] && [ "$brc" -ne 2 ] && [ "$brc" -ne 3 ]; } || [ ! -s "$batch" ]; then
    echo "    FAIL: batch reference for the full-Y1 capture failed (exit $brc)" >&2
    failures=$((failures + 1))
    return
  fi
  local probe streams
  probe="$("$fleet_bin" --connect 127.0.0.1:9 --year 1 --duration "$dur" \
             --seed "$seed" --retry-for 0 2>&1 || true)"
  streams="$(printf '%s\n' "$probe" |
             sed -n 's/^fleet: \([0-9][0-9]*\) streams.*/\1/p')"
  if [ -z "$streams" ] || [ "$streams" -eq 0 ]; then
    echo "    FAIL: cannot probe the full-Y1 fleet shape" >&2
    failures=$((failures + 1))
    return
  fi

  local pace threads port out t0 t1 rc drc
  for pace in 0 8000; do
    for threads in 1 4; do
      out="$workdir/full_y1_p${pace}_t${threads}.json"
      : >"$workdir/dfull.out"
      t0="$(date +%s.%N)"
      "$daemon_bin" --port 0 --threads "$threads" --expect-streams "$streams" \
          --drain-when-done --run-for 900 --report "$out" --quiet \
          >"$workdir/dfull.out" 2>&1 &
      local d=$!
      port="$(wait_for_port "$workdir/dfull.out")" || {
        echo "    FAIL: full-Y1 daemon never listened" >&2
        failures=$((failures + 1)); kill "$d" 2>/dev/null || true; continue
      }
      rc=0
      "$fleet_bin" --connect "127.0.0.1:$port" --year 1 --duration "$dur" \
          --seed "$seed" --pace "$pace" --quiet || rc=$?
      drc=0; wait "$d" || drc=$?
      t1="$(date +%s.%N)"
      local wall
      wall="$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.1f", b - a }')"
      if [ "$rc" -ne 0 ] || [ "$drc" -ne "$brc" ]; then
        echo "    FAIL: pace $pace, --threads $threads: fleet exit $rc, daemon exit" \
             "$drc (batch $brc)" >&2
        failures=$((failures + 1)); continue
      fi
      if cmp -s "$batch" "$out"; then
        echo "    pace $pace, --threads $threads: live report == batch (${wall}s wall)"
      else
        echo "    FAIL: pace $pace, --threads $threads: live report differs from batch" >&2
        failures=$((failures + 1))
      fi
    done
  done
}

if [ "$skip_daemon" -eq 0 ]; then
  daemon_soak
fi
if [ "$skip_daemon" -eq 0 ] && [ "$skip_sysfault" -eq 0 ]; then
  sysfault_soak
fi
if [ "$skip_daemon" -eq 0 ]; then
  full_y1_soak
fi
if [ "$skip_daemon" -eq 0 ] && [ "$soak_stall" = "1" ]; then
  stall_soak
fi

if [ "$failures" -gt 0 ]; then
  echo "==> soak FAILED ($failures phase(s) diverged or crashed)" >&2
  exit 1
fi
echo "==> soak passed: every phase that ran matched its reference"
