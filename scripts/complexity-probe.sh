#!/usr/bin/env sh
# Complexity probe: `susf check`, `lint`, `compliance`, `cost` and
# `validity` must grow linearly in the length of a client.
#
#   sh scripts/complexity-probe.sh [SUSF]
#
# Generates the straight-line spec
#
#   service s = req?.(a?.a?.…); client c = open(1){ req!.(a!.a!.…) };
#   client d = req!.(a!.a!.…);
#
# at 4,000, 8,000 and 16,000 actions, runs each command three times at
# each size and keeps the fastest run. It fails when that time grows
# more than 2.5x from one size to the next (a quadratic walk grows 4x
# per doubling). SUSF defaults to the dune build of bin/susf.exe.
#
# `compliance FILE d s` projects both bodies (d is its own contract,
# since it is communication only) and runs one product survey. `cost
# FILE` walks each client's LTS (`Semantics.lts`) and prices its plans;
# `validity FILE` runs both static validity engines, the direct one and
# the BPA model checker, on each client. `susf dot` and `susf graph
# FILE NAME` are left out on purpose: their DOT labels print every
# residual, so their output, and their time with it, grow
# quadratically (`dot` wrote 80 MB in 5.8 s at 4,000 actions and
# 320 MB in 24.5 s at 8,000, on a 2-vCPU host).
set -eu

ROOT=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
SUSF=${1:-"$ROOT/_build/default/bin/susf.exe"}
SIZES="4000 8000 16000"
RUNS=3
BOUND=2.5

if [ ! -x "$SUSF" ]; then
  echo "complexity-probe: $SUSF not found — run 'dune build' first" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

chain() { # chain N DIR: a.a.….a with N prefixes a? or a!
  awk -v n="$1" -v d="$2" 'BEGIN {
    s = "a" d; for (i = 1; i < n; i++) s = s ".a" d; printf "%s", s }'
}

for n in $SIZES; do
  printf 'service s = req?.(%s);\nclient c = open(1){ req!.(%s) };\n' \
    "$(chain "$n" '?')" "$(chain "$n" '!')" > "$WORK/line$n.susf"
  printf 'client d = req!.(%s);\n' "$(chain "$n" '!')" >> "$WORK/line$n.susf"
done

now_ns() { date +%s%N; }

status=0
for cmd in check lint compliance cost validity; do
  case "$cmd" in
    compliance) set -- d s ;;
    *) set -- ;;
  esac
  prev=""
  for n in $SIZES; do
    best=""
    for _ in $(seq "$RUNS"); do
      t0=$(now_ns)
      rc=0
      "$SUSF" "$cmd" "$WORK/line$n.susf" "$@" > /dev/null 2>&1 || rc=$?
      t1=$(now_ns)
      if [ "$rc" -gt 1 ]; then
        echo "complexity-probe: susf $cmd exited $rc at $n actions" >&2
        exit 2
      fi
      t=$(( (t1 - t0) / 1000 ))
      if [ -z "$best" ] || [ "$t" -lt "$best" ]; then best=$t; fi
    done
    if [ -n "$prev" ]; then
      verdict=$(awk -v a="$prev" -v b="$best" -v k="$BOUND" \
        'BEGIN { r = b / a; printf "%.2fx %s", r, (r > k ? "FAIL" : "ok") }')
    else
      verdict="-"
    fi
    printf '%-10s %6d actions  %8.3f s  %s\n' "$cmd" "$n" \
      "$(awk -v t="$best" 'BEGIN { printf "%.3f", t / 1e6 }')" "$verdict"
    case "$verdict" in *FAIL) status=1 ;; esac
    prev=$best
  done
done
exit "$status"
