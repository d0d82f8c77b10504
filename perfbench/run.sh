#!/usr/bin/env bash
# Builds lightor-server and the benchmark from this checkout, then runs the
# benchmark with the arguments given. Run from the repository root:
#
#   bash perfbench/run.sh --workload live_broadcast --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOPROXY=off GOFLAGS= GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/lightor-server" lightor/cmd/lightor-server && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/lightor-server" -work "$out/runs" "$@"
