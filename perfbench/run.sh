#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload fig8-warm --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and everything the benchmark writes stay
# under .bench_build/ in the current directory, and the build never uses
# the network.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own state (telemetry counters,
# the env file) out of the home directory; the settings that env file could
# hold are fixed here instead.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
