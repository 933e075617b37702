#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload scan|explore|fleet --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every file the Go toolchain writes (build
# cache, temporary files, the binary) stays under $CARGO_TARGET_DIR, or
# .bench_build when that is unset. Outside a checkout of the module the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
work="$out/perfbench"
mkdir -p "$work/gocache" "$work/gotmp" "$work/home"

export GOCACHE="$work/gocache"
export GOTMPDIR="$work/gotmp"
export GOMODCACHE="$work/gomodcache"
export HOME="$work/home"
export XDG_CONFIG_HOME="$work/home"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off

(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" --out "$work" "$@"
