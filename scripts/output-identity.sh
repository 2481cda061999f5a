#!/usr/bin/env sh
# Output identity: two builds of susf must print the same stdout and
# exit with the same code on every shipped spec.
#
#   sh scripts/output-identity.sh OLD_SUSF NEW_SUSF
#
# Over every .susf file in examples/data and test/corpus it runs
#
#   per spec:             check, check --json, plans, plans --orchestrate,
#                         plans --mediate, validity, lint, fmt, show
#   per ordered pair of
#   declared names:       compliance, dot, subcontract
#   per declared name:    graph, cost -c NAME
#
# and `serve --script`, plain and --json, for the churn, appended and
# mismatched scripts over their specs; the plain run also writes a
# journal, which must be byte-identical too. The names are the services
# and clients `OLD_SUSF show` prints. Each command whose output differs
# is printed; the exit status is 1 on any difference, 2 on bad usage.
#
# A `graph` or `dot` output that differs is compared once more with
# every node number replaced by the node's label and the lines sorted:
# if the two then match, the graphs are the same up to their numbering,
# and the case is printed and counted as `renumbered` instead of
# `differs`. A renumbering still makes the exit status 1, so it is
# always seen and deliberate.
set -eu

if [ $# -ne 2 ] || [ ! -x "$1" ] || [ ! -x "$2" ]; then
  echo "usage: sh scripts/output-identity.sh OLD_SUSF NEW_SUSF" >&2
  exit 2
fi
OLD=$(CDPATH='' cd -- "$(dirname -- "$1")" && pwd)/$(basename -- "$1")
NEW=$(CDPATH='' cd -- "$(dirname -- "$2")" && pwd)/$(basename -- "$2")
ROOT=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
cd "$ROOT"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

cases=0
diffs=0
renumbered=0

# canon DOT: the graph with node numbers replaced by node labels, lines
# sorted, so that two numberings of one graph print alike.
canon() {
  awk '
    { line[NR] = $0 }
    $1 ~ /^[0-9]+$/ && $2 ~ /^\[shape=/ {
      label = substr($0, index($0, "label=\"") + 7)
      sub(/"\];$/, "", label)
      name[$1] = "\"" label "\""
    }
    END {
      for (i = 1; i <= NR; i++) {
        $0 = line[i]
        if ($1 ~ /^[0-9]+$/ && $2 ~ /^\[shape=/) sub(/^  [0-9]+ /, "  node ")
        else if ($1 == "init") $0 = "  init -> " name[$5 + 0]
        else if ($2 == "->") {
          rest = substr($0, index($0, "["))
          $0 = "  " name[$1] " -> " name[$3 + 0] " " rest
        }
        print
      }
    }' "$1" | LC_ALL=C sort
}

# same ARGS...: run both builds on ARGS, compare stdout and exit code.
same() {
  old_rc=0
  "$OLD" "$@" > "$WORK/old.out" 2> /dev/null || old_rc=$?
  new_rc=0
  "$NEW" "$@" > "$WORK/new.out" 2> /dev/null || new_rc=$?
  cases=$((cases + 1))
  if [ "$old_rc" -ne "$new_rc" ] || ! cmp -s "$WORK/old.out" "$WORK/new.out"
  then
    if [ "$old_rc" -eq "$new_rc" ] && { [ "$1" = graph ] || [ "$1" = dot ]; } \
      && [ "$(canon "$WORK/old.out")" = "$(canon "$WORK/new.out")" ]; then
      renumbered=$((renumbered + 1))
      echo "renumbered: susf $*"
    else
      diffs=$((diffs + 1))
      echo "differs (exit $old_rc vs $new_rc): susf $*"
    fi
  fi
}

for spec in examples/data/*.susf test/corpus/*.susf; do
  same check "$spec"
  same check "$spec" --json
  same plans "$spec"
  same plans "$spec" --orchestrate
  same plans "$spec" --mediate
  same validity "$spec"
  same lint "$spec"
  same fmt "$spec"
  same show "$spec"
  names=$("$OLD" show "$spec" 2> /dev/null \
    | sed -n 's/^\(service\|client\) \([^ ]*\) =.*/\2/p')
  for a in $names; do
    same graph "$spec" "$a"
    same cost "$spec" -c "$a"
    for b in $names; do
      same compliance "$spec" "$a" "$b"
      same dot "$spec" "$a" "$b"
      same subcontract "$spec" "$a" "$b"
    done
  done
done

for pair in hotel:churn appended:appended mismatched:mismatched; do
  spec=examples/data/${pair%%:*}.susf
  script=examples/data/${pair##*:}.script
  same serve "$spec" --script "$script" --json
  rm -f "$WORK/old.journal" "$WORK/new.journal"
  old_rc=0
  "$OLD" serve "$spec" --script "$script" --journal "$WORK/old.journal" \
    > "$WORK/old.out" 2> /dev/null || old_rc=$?
  new_rc=0
  "$NEW" serve "$spec" --script "$script" --journal "$WORK/new.journal" \
    > "$WORK/new.out" 2> /dev/null || new_rc=$?
  cases=$((cases + 1))
  if [ "$old_rc" -ne "$new_rc" ] || ! cmp -s "$WORK/old.out" "$WORK/new.out" \
    || ! cmp -s "$WORK/old.journal" "$WORK/new.journal"; then
    diffs=$((diffs + 1))
    echo "differs (exit $old_rc vs $new_rc): susf serve $spec --script $script, or its journal"
  fi
done

echo "output-identity: $cases cases, $diffs differ, $renumbered renumbered"
[ "$diffs" -eq 0 ] && [ "$renumbered" -eq 0 ]
