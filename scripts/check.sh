#!/usr/bin/env bash
# Local reproduction of the CI jobs (.github/workflows/ci.yml):
#
#   1. Release build + ctest
#   2. unchartedlint: the project-invariant static analyzer (determinism,
#      seq15 consolidation, decoder byte-safety, include layering) over the
#      full tree — any unsuppressed violation fails the run
#   3. Debug ASan+UBSan build + ctest (includes the fault-injection chaos
#      sweep, called out explicitly so a chaos regression is easy to spot)
#   4. the hostile-peer adversarial sweep under sanitizers: every
#      sim::HostilePeer attack scenario through the full pipeline plus the
#      conformance machine tests
#   5. ThreadSanitizer over the work-stealing pool and the parallel
#      flow-sharded pipeline (the determinism tests double as race
#      detectors: every stage runs concurrently at threads=8)
#   6. clang-tidy over src/ (skipped with a notice if clang-tidy is absent)
#   7. a short streaming kill/restore soak (scripts/soak.sh; the nightly
#      CI job runs the full 10-minute matrix) plus the live-ingest daemon
#      soak: ~500 concurrent tapstream connections, SIGKILL + --restore
#      byte-identical reports at --threads 1 and 8, a hostile fleet that
#      must exit 3 with zero benign flows dropped, and a peak-RSS bound
#      (the nightly daemon-soak CI job runs 10k connections)
#
# Usage: scripts/check.sh [--fuzz]
#   --fuzz   additionally build the fuzz harnesses and run each one for
#            10k iterations over the seed corpus (the `fuzz` preset)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
run_fuzz=0
for arg in "$@"; do
  case "$arg" in
    --fuzz) run_fuzz=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> [1/8] release: build + ctest"
cmake --preset release
cmake --build --preset release -j "$jobs"
ctest --preset release -j "$jobs"

echo "==> [2/8] unchartedlint: project invariants (determinism/seq15/bytes/layering)"
build-release/tools/lint/unchartedlint --root .

echo "==> [3/8] debug-asan-ubsan: build + ctest"
cmake --preset debug-asan-ubsan
cmake --build --preset debug-asan-ubsan -j "$jobs"
ASAN_OPTIONS=strict_string_checks=1:detect_stack_use_after_return=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --preset debug-asan-ubsan -j "$jobs"

echo "==> [4/8] chaos sweep under sanitizers (packet faults 0-20% + syscall/storage faults)"
ASAN_OPTIONS=strict_string_checks=1:detect_stack_use_after_return=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --preset debug-asan-ubsan \
    -R 'ChaosSweep|FaultInject|SysFault|CheckpointDurability' --output-on-failure

echo "==> [5/8] hostile-peer: adversarial sweep under sanitizers"
ASAN_OPTIONS=strict_string_checks=1:detect_stack_use_after_return=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --preset debug-asan-ubsan \
    -R 'HostilePeer|Conformance|QuarantinePolicy' \
    --output-on-failure

echo "==> [6/8] tsan: work-stealing pool + parallel pipeline"
cmake --preset tsan
cmake --build --preset tsan --target test_parallel -j "$jobs"
TSAN_OPTIONS=halt_on_error=1 \
  ctest --preset tsan -R 'Pool|ParallelFor|ParallelDeterminism' --output-on-failure

echo "==> [7/8] clang-tidy over src/"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --preset tidy
  cmake --build --preset tidy -j "$jobs"
else
  echo "    clang-tidy not installed; skipping (CI runs this job)"
fi

echo "==> [8/8] kill/restore soak + daemon soak (short; nightly CI runs the full matrix)"
scripts/soak.sh --duration 120 --rates "0 0.01" --kill-step 10000

if [ "$run_fuzz" -eq 1 ]; then
  echo "==> [fuzz] harnesses: 10k iterations over the seed corpus"
  cmake --preset fuzz
  cmake --build --preset fuzz -j "$jobs"
  ctest --preset fuzz -L fuzz -j "$jobs"
fi

echo "==> all checks passed"
