#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/run.sh --workload serve-mixed --seed 1 --seconds 15 --trace 0
#
# Every file the build writes (compiler cache, temporaries, the binary)
# stays under $CARGO_TARGET_DIR, default .bench_build, so the toolchain
# touches nothing outside the checkout and never goes to the network.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .) >&2
BENCH_BUILD_DIR=$out exec "$out/bench" "$@"
