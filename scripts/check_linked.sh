#!/usr/bin/env bash
# Link census: every object compiled from src/ must reach a shipped binary.
#
#   scripts/check_linked.sh BUILD_DIR
#
# For each object of the src/ static libraries under BUILD_DIR that defines
# at least one strong text symbol (nm type T), at least one of those
# symbols must be defined in a shipped binary: BUILD_DIR/examples/* (not
# the test_exit_codes test binary), BUILD_DIR/bench/* and
# BUILD_DIR/tools/lint/unchartedlint. An object none of them links is code
# that only tests reach; the script names each such object and exits 1.
#
# Objects are read from the libraries (lib*.a), not from the loose .o
# files: an incremental build leaves the object of a deleted source file
# on disk, but relinks each library from its current sources.
#
# Build every target first (a plain `cmake --build BUILD_DIR`): a binary
# that is missing or stale is not read, or is read as it was. The ctest
# Census.EverySourceObjectIsLinked runs this over the build tree; exit 77
# means nm is not installed and the census was skipped.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build="$1"

if ! command -v nm >/dev/null 2>&1; then
  echo "SKIPPED: nm not found on PATH; the link census needs binutils" >&2
  exit 77
fi

binaries=()
for f in "$build"/examples/* "$build"/bench/* "$build"/tools/lint/unchartedlint; do
  [[ -f "$f" && -x "$f" ]] || continue
  [[ "$(basename "$f")" == test_exit_codes ]] && continue
  binaries+=("$f")
done
if [[ ${#binaries[@]} -eq 0 ]]; then
  echo "FAIL: no shipped binary under $build (build every target first)" >&2
  exit 1
fi
echo "read ${#binaries[@]} shipped binaries:"
printf '  %s\n' "${binaries[@]#"$build"/}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# Every symbol any shipped binary defines, mangled, one per line.
for b in "${binaries[@]}"; do
  nm --defined-only "$b" | awk 'NF >= 3 { print $3 }'
done | sort -u > "$tmp/shipped"

objects=0
unlinked=0
while IFS= read -r -d '' lib; do
  # "member.o:" heads each member's symbols; keep "member symbol" per T.
  nm --defined-only "$lib" |
    awk '/:$/ { m = substr($0, 1, length($0) - 1); next } $2 == "T" { print m, $3 }' \
    > "$tmp/pairs"
  target="$(basename "$lib" .a)"
  objdir="$(dirname "${lib#"$build"/}")/CMakeFiles/${target#lib}.dir"
  for member in $(awk '{ print $1 }' "$tmp/pairs" | sort -u); do
    awk -v m="$member" '$1 == m { print $2 }' "$tmp/pairs" | sort -u > "$tmp/strong"
    objects=$((objects + 1))
    if [[ -z "$(comm -12 "$tmp/strong" "$tmp/shipped")" ]]; then
      echo "UNLINKED: $objdir/$member ($(wc -l < "$tmp/strong") strong text symbols, none in a shipped binary)"
      unlinked=$((unlinked + 1))
    fi
  done
done < <(find "$build/src" -name 'lib*.a' -print0 | sort -z)

if [[ $objects -eq 0 ]]; then
  echo "FAIL: no library object with a strong text symbol under $build/src" >&2
  exit 1
fi
if [[ $unlinked -gt 0 ]]; then
  echo "FAIL: $unlinked of $objects src objects reach no shipped binary"
  exit 1
fi
echo "OK: all $objects src objects with strong text symbols reach a shipped binary"
