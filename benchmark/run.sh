#!/usr/bin/env bash
# Builds the engine and odebench from this source tree, then runs
# `odebench run` with the given arguments, for example
#
#   bash benchmark/run.sh --workload query-hot --seed 1 --seconds 10 --trace 0
#
# The build goes to _build/ (dune's shared cache is off, so nothing is
# written outside the tree) and the stores and traces to .odebench/, both
# under the tree's root. Exits 2 outside an ODE source tree.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: $(pwd) is not an ODE source tree (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . benchmark/odebench.exe bin/ode_server.exe >&2
exec ./_build/default/benchmark/odebench.exe run "$@"
