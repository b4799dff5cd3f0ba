#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it. Invoked from
# the root of a checkout as `sh bench/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>`. Everything the Go toolchain writes (build
# cache, module cache, temporary files, its own config) is kept under
# .bench_build/ in the checkout. A traced run (--trace other than 0) builds with -tags layers,
# which compiles the layer drivers that import repro/internal/...; an untraced
# run never builds them, so a broken layer driver fails only the traced run.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

tags=""
bin="$build/bench"
prev=""
for arg in "$@"; do
	case "$prev" in
	-trace | --trace) [ "$arg" = 0 ] || { tags="layers"; bin="$build/bench-layers"; } ;;
	esac
	case "$arg" in
	-trace=0 | --trace=0) ;;
	-trace=* | --trace=*) tags="layers"; bin="$build/bench-layers" ;;
	esac
	prev=$arg
done

(
	cd "$root/bench"
	mkdir -p "$build/tmp"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
		GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config" \
		go build -tags "$tags" -o "$bin" .
)
exec "$bin" "$@"
