#!/bin/sh
# Negative test of the answer checks: a run whose first checked answer
# has one row altered, or one row dropped, must exit non-zero and print
# why — in process (star-enum, checked against the benchmark's copy of
# the data) and over HTTP (http-live, checked against Engine.query).
# Run from anywhere: sh canonbench/negative_test.sh
set -u
cd "$(dirname "$0")/.."
dune build --root . ./canonbench/canon.exe 1>&2 || exit 1
status=0
for case in "star-enum alter" "star-enum drop" "http-live drop"; do
  set -- $case
  out=$(./_build/default/canonbench/canon.exe --workload "$1" --seed 1 --seconds 1 \
    --trace 0 --corrupt "$2" 2>&1)
  code=$?
  if [ "$code" -ne 0 ] && printf '%s\n' "$out" | grep -q '^wrong answer'; then
    echo "ok: $1 --corrupt $2 fails the run (exit $code): $(printf '%s\n' "$out" | grep '^wrong answer')"
  else
    echo "FAIL: $1 --corrupt $2 exited $code"
    status=1
  fi
done
exit $status
