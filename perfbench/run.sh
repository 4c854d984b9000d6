#!/bin/sh
# Builds the serving benchmark from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm_mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the span files of traced runs all stay under .bench_build there, and
# the Go tool is kept off the network (no module downloads, no
# toolchain switch).
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
