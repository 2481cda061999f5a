#!/usr/bin/env sh
# Smoke-run the susf commands shown in the documentation, so doc drift
# breaks CI instead of readers.
#
#   sh scripts/docs-check.sh README.md docs/*.md
#
# Every fenced ```sh / ```console block is scanned; lines invoking susf
# (directly, via `dune exec bin/susf.exe --`, or behind a `$ ` prompt)
# are run against the built binary in a scratch directory, with the
# repository's examples/ linked in. Exit codes 0 and 1 are accepted —
# the docs intentionally show failing analyses (invalid plans, violated
# policies, degraded runs) — anything else (parse errors, unknown
# flags) fails the check. printf/echo lines are run too, so docs can
# set up their own fixtures (e.g. a log file to audit).
#
# Additionally, every backticked instrument name mentioned in the docs
# under one of the audited prefixes (`broker.`, `net.`, `orchestration.`,
# `mediator.`, `product.`, `validity.`, `planner.`, `netcheck.`,
# `contract.`, `hexpr.`, `repr.`) must exist verbatim as a metric-name literal in
# lib/ or bin/, so the observability tables cannot drift from
# the code. `NAME.hits` and `NAME.misses` also count as present when
# `"NAME"` is a literal: Repr.Memo and Repr.Hashcons derive those
# counters from the registered cache name. Wildcard mentions
# (`broker.shard.*`) are not audited.
set -u

ROOT=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
SUSF="$ROOT/_build/default/bin/susf.exe"

if [ ! -x "$SUSF" ]; then
  echo "docs-check: $SUSF not found — run 'dune build' first" >&2
  exit 2
fi

if [ "$#" -eq 0 ]; then
  echo "usage: sh scripts/docs-check.sh FILE.md..." >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM
ln -s "$ROOT/examples" "$WORK/examples"

CMDS="$WORK/commands.txt"

awk '
  /^```(sh|console)[ \t]*$/ { in_block = 1; next }
  /^```/                    { in_block = 0; buf = ""; next }
  in_block {
    line = $0
    sub(/^\$[ ]*/, "", line)
    if (buf != "") { line = buf line; buf = "" }
    if (line ~ /\\$/) { sub(/[ \t]*\\$/, " ", line); buf = line; next }
    print FILENAME "\t" line
  }
' "$@" > "$CMDS"

status=0
ran=0
while IFS="$(printf '\t')" read -r file cmd; do
  case "$cmd" in
    susf\ *) run="\"$SUSF\" ${cmd#susf }" ;;
    dune\ exec\ bin/susf.exe\ --\ *) run="\"$SUSF\" ${cmd#dune exec bin/susf.exe -- }" ;;
    printf\ *|echo\ *) run="$cmd" ;;
    *) continue ;;
  esac
  if (cd "$WORK" && eval "$run") > /dev/null 2>&1; then
    code=0
  else
    code=$?
  fi
  ran=$((ran + 1))
  if [ "$code" -gt 1 ]; then
    echo "FAIL exit=$code [$file] $cmd"
    status=1
  else
    echo "ok   exit=$code [$file] $cmd"
  fi
done < "$CMDS"

if [ "$ran" -eq 0 ]; then
  echo "docs-check: no susf commands found in: $*" >&2
  exit 2
fi

# ---- instrument-name audit ------------------------------------------
audited=0
missing=0
literal() {
  grep -rqF "\"$1\"" "$ROOT/lib" "$ROOT/bin"
}
prefixes='broker|net|orchestration|mediator|product|validity|planner|netcheck|contract|hexpr|repr'
for name in $(grep -hoE "\`($prefixes)\\.[a-z0-9_.]+\`" "$@" | tr -d '`' | sort -u); do
  audited=$((audited + 1))
  case "$name" in
    *.hits | *.misses) cache=${name%.*} ;;
    *) cache= ;;
  esac
  if literal "$name" || { [ -n "$cache" ] && literal "$cache"; }; then
    echo "ok   instrument $name"
  else
    echo "FAIL instrument $name is in the docs but not in lib/ or bin/"
    missing=$((missing + 1))
    status=1
  fi
done
echo "docs-check: $audited instrument names audited, $missing missing"

echo "docs-check: $ran commands, $([ $status -eq 0 ] && echo all passed || echo FAILURES above)"
exit $status
