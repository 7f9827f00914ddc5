#!/usr/bin/env bash
# Builds cmd/nazard and the benchmark from the tree under test, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload drift_fix --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f perfbench/go.mod || ! -f go.mod || ! -d cmd/nazard ]]; then
	echo "perfbench: run from the root of a nazar checkout (need go.mod, cmd/nazard, perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/nazard" ./cmd/nazard >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -nazard "$out/bin/nazard" -work-dir "$out/tmp" "$@"
