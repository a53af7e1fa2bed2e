#!/usr/bin/env bash
# Builds the benchmark from the module in the current directory and
# runs it with the given arguments, for example:
#
#   bash internal/gsflbench/run.sh --workload paper-gsfl --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary stay under .bench_build/ in that directory, and the
# toolchain is kept offline. Go telemetry is switched off in that private
# config directory: otherwise the go command starts a detached child
# process that outlives this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/home/go/telemetry"
printf 'off' >"$out/home/go/telemetry/mode"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/gsflbench" ./internal/gsflbench
GSFLBENCH_COMMAND="bash internal/gsflbench/run.sh $*" exec "$out/bin/gsflbench" "$@"
