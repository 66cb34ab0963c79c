#!/usr/bin/env bash
# Build the repository benchmark from source and run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f bin/nisqd.ml || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of a full nisq checkout" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --profile release --display quiet \
  perfbench/main.exe bin/nisqd.exe >&2

exec ./_build/default/perfbench/main.exe \
  --nisqd ./_build/default/bin/nisqd.exe "$@"
