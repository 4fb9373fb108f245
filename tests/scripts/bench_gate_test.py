#!/usr/bin/env python3
"""Self-test of scripts/bench_gate.py on synthetic bench_throughput JSON.

The gate takes one --candidate per round and gates each threads-1 cell on
the median across rounds, so:
  - a cell 20% low in every round fails (the 15% floor holds);
  - a cell 40% low in 1 of 3 rounds passes (one noisy round is outvoted);
  - a cell missing from a round fails;
  - a single clean round passes.

Usage: bench_gate_test.py path/to/bench_gate.py
"""
import json
import os
import subprocess
import sys
import tempfile

CELLS = [(capture, stage) for capture in ("Y1", "Y2")
         for stage in ("ingest", "end_to_end", "query", "live")]
BASE_PPS = 1_000_000.0


def snapshot(scale=None, drop=None):
    """bench_throughput-shaped JSON: every gated cell at BASE_PPS times its
    factor in `scale`, minus the cell `drop`, plus a threads-4 row the gate
    must ignore."""
    scale = scale or {}
    rows = [{"capture": c, "stage": s, "threads": 1,
             "packets_per_s": BASE_PPS * scale.get((c, s), 1.0)}
            for c, s in CELLS if (c, s) != drop]
    rows.append({"capture": "Y1", "stage": "ingest", "threads": 4,
                 "packets_per_s": 1.0})
    return {"results": rows}


def gate(tmp, gate_py, rounds):
    paths = []
    for i, doc in enumerate([snapshot()] + rounds):
        path = os.path.join(tmp, f"{i}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        paths.append(path)
    cmd = [sys.executable, gate_py, "--baseline", paths[0],
           "--max-regression", "0.15"]
    for path in paths[1:]:
        cmd += ["--candidate", path]
    return subprocess.run(cmd, capture_output=True, text=True).returncode


def main():
    gate_py = sys.argv[1]
    low = ("Y1", "end_to_end")
    cases = [
        ("one clean round passes", [snapshot()], 0),
        ("20% low in every round fails",
         [snapshot({low: 0.8})] * 3, 1),
        ("40% low in 1 of 3 rounds passes",
         [snapshot(), snapshot(), snapshot({low: 0.6})], 0),
        ("a cell missing from one round fails",
         [snapshot(), snapshot(drop=low), snapshot()], 1),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, rounds, want in cases:
            got = gate(tmp, gate_py, rounds)
            status = "ok" if got == want else "FAIL"
            print(f"{status}: {name} (exit {got}, want {want})")
            failures += got != want
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
