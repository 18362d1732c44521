#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#   bash e2ebench/run.sh --workload train_cnn --seed 1 --seconds 20 --trace 0
# Run from the root of an octf checkout. The last line of standard
# output is the JSON result; build output and progress go to stderr.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "e2ebench: not the root of an octf checkout (no dune-project or lib/)" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2ebench/main.exe >&2 || exit 3
# Run on one CPU: the workloads' processes and threads then take turns
# on it instead of spreading over a shared host's cores, where a core
# taken by a neighbour stalls whichever step is waiting on it. Without
# taskset the run is unpinned.
cpu=$(taskset -pc $$ 2>/dev/null | sed -nE 's/.*: *([0-9]+).*/\1/p')
if [ -n "$cpu" ]; then
  exec taskset -c "$cpu" ./_build/default/e2ebench/main.exe "$@"
fi
exec ./_build/default/e2ebench/main.exe "$@"
