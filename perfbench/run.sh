#!/usr/bin/env bash
# Build susf and the benchmark from source, then run one benchmark pass:
#
#   bash perfbench/run.sh --workload serve-hot|serve-population|cli-repair \
#     --seed N --seconds S --trace 0|1
#
# Run it from the root of a susf source tree. Build output goes to
# stderr; the last line of stdout is the JSON result. Scratch files
# (specs, journals, span dumps) go under .perfbench/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/susf.ml ] || [ ! -d lib/broker ]; then
  echo "perfbench: not at the root of a susf source tree" >&2
  exit 2
fi

dune build --root . ./bin/susf.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe \
  --susf ./_build/default/bin/susf.exe --work .perfbench "$@"
