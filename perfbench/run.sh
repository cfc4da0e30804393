#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   sh perfbench/run.sh --workload suite|large|serve|all --seed N \
#     --seconds S --trace 0|1 [--out FILE]
#   sh perfbench/run.sh --compare PARENT.jsonl CHANGE.jsonl
#   sh perfbench/run.sh --self-test
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object.  The shared dune cache is off and
# temporary files go under perfbench/_out, so the build and the run read
# and write only inside the checkout.
set -e
mkdir -p perfbench/_out/tmp
TMPDIR="$(pwd)/perfbench/_out/tmp"
XDG_CACHE_HOME="$TMPDIR"
DUNE_CACHE=disabled
export TMPDIR XDG_CACHE_HOME DUNE_CACHE
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
