#!/usr/bin/env bash
# Shows that a change did not move the paper reproduction: runs every
# paper bench (bench_table*, bench_fig*, bench_ablation*) and the
# deterministic examples from two build directories and compares their
# outputs byte for byte.
#
# Usage: tools/paper_bench_diff.sh PARENT_BUILD CHANGE_BUILD
#
# Build both trees the same way first (e.g. cmake -DCMAKE_BUILD_TYPE=Release).
# Prints one line per program, "same" or "DIFFERENT" (followed by the
# first lines that differ) or "MISSING". Exits 1 on any difference or
# missing binary, 2 on bad usage. Every program runs with stdin closed,
# in a scratch working directory. speedup_study and serving_study are
# left out: their outputs vary from run to run.
set -u

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

examples="quickstart mini_warehouse_demo allocation_advisor \
range_fragmentation_demo sql_interface"

# Every paper bench either build has, so a bench that exists on one side
# only shows up as MISSING rather than being skipped.
benches=$(for dir in "$parent" "$change"; do
  for bin in "$dir"/bench_table* "$dir"/bench_fig* "$dir"/bench_ablation*; do
    [ -f "$bin" ] && [ -x "$bin" ] && basename "$bin"
  done
done | sort -u)
if [ -z "$benches" ]; then
  echo "no bench_table*, bench_fig* or bench_ablation* binary in either" \
    "build directory" >&2
  exit 1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run DIR NAME OUT: runs DIR/NAME with stdin closed from a fresh working
# directory, stdout and stderr into OUT; fails when the binary is
# missing.
run() {
  [ -x "$1/$2" ] || return 1
  local cwd="$work/cwd-$2"
  mkdir -p "$cwd"
  (cd "$cwd" && "$1/$2" <&- >"$3" 2>&1)
  echo "exit status $?" >>"$3"
  rm -rf "$cwd"
}

status=0
for name in $benches $examples; do
  if ! run "$parent" "$name" "$work/parent.out" ||
     ! run "$change" "$name" "$work/change.out"; then
    printf '%-36s MISSING\n' "$name"
    status=1
    continue
  fi
  if cmp -s "$work/parent.out" "$work/change.out"; then
    printf '%-36s same\n' "$name"
  else
    printf '%-36s DIFFERENT\n' "$name"
    diff "$work/parent.out" "$work/change.out" | head -n 20 | sed 's/^/    /'
    status=1
  fi
done
exit $status
