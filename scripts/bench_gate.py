#!/usr/bin/env python3
"""Throughput regression gate for CI.

Compares a fresh bench_throughput run against the committed baseline
(BENCH_throughput.json) and fails if, for any capture, the threads-1
packet rate of a gated stage regressed by more than the allowed fraction.
Four stages are gated, all at threads 1:

  ingest      the zero-copy hot path the repo commits a trajectory for;
  end_to_end  ingest plus every analysis (CaptureAnalyzer::analyze), so a
              regression in the end-of-stream query or a §6 stage fails too;
  query       a live report query over the whole ingested capture
              (StreamingAnalyzer::report_snapshot), so a query that starts
              copying the records again fails;
  live        the Y1 capture streamed over loopback by a pace-0 fleet into
              the live daemon until its final report (the bench itself
              fails when that report differs from batch), so a per-frame
              cost in the daemon's merge or reactor fails.

Only threads-1 cells are gated: they are the least noisy on shared CI
runners (no scheduler effects from worker threads).

Usage: scripts/bench_gate.py --baseline BENCH_throughput.json \
           --candidate bench-smoke.json [--max-regression 0.15]

Exit codes: 0 pass, 1 regression, 2 bad input.
"""
import argparse
import json
import sys

GATED_STAGES = ("ingest", "end_to_end", "query", "live")


def threads1_rates(snapshot):
    """Map (capture, stage) -> packets_per_s for the gated threads=1 cells."""
    out = {}
    for row in snapshot.get("results", []):
        if row.get("stage") in GATED_STAGES and row.get("threads") == 1:
            out[(row["capture"], row["stage"])] = float(row["packets_per_s"])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate", required=True)
    parser.add_argument("--max-regression", type=float, default=0.15)
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = threads1_rates(json.load(f))
        with open(args.candidate) as f:
            candidate = threads1_rates(json.load(f))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        print(f"bench_gate: cannot load inputs: {err}", file=sys.stderr)
        return 2

    for stage in GATED_STAGES:
        if not any(s == stage for _, s in baseline):
            print(f"bench_gate: baseline has no ({stage}, threads=1) rows",
                  file=sys.stderr)
            return 2

    failed = False
    floor = 1.0 - args.max_regression
    for (capture, stage), base_pps in sorted(baseline.items()):
        cand_pps = candidate.get((capture, stage))
        if cand_pps is None:
            print(f"bench_gate: candidate missing {stage} cell for capture "
                  f"{capture!r}", file=sys.stderr)
            failed = True
            continue
        ratio = cand_pps / base_pps
        verdict = "OK" if ratio >= floor else "REGRESSION"
        print(f"{capture}: {stage} t1 {cand_pps:,.0f} pkt/s vs baseline "
              f"{base_pps:,.0f} pkt/s ({ratio:.3f}x, floor {floor:.2f}x) "
              f"{verdict}")
        if ratio < floor:
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
