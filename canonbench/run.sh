#!/bin/sh
# Build the benchmark from source in this checkout, then run it with the
# given arguments (see canon.ml for them).
set -eu
cd "$(dirname "$0")/.."
dune build --root . ./canonbench/canon.exe 1>&2
exec ./_build/default/canonbench/canon.exe "$@"
