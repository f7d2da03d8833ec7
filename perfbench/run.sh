#!/usr/bin/env bash
# Build the benchmark from source and run it; all arguments pass through:
#   bash perfbench/run.sh --workload fido2-login|totp-login|log-fleet \
#        --seed N --seconds S --trace 0|1
# Run from the root of a larch checkout.  The build stays in _build (the
# shared dune cache is off, so nothing is written outside the checkout).
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/larchbench.exe 1>&2
exec ./_build/default/perfbench/larchbench.exe "$@"
