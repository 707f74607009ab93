#!/usr/bin/env bash
# Builds the serving benchmark from source into .bench_build and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload long-docs --seed 1 --seconds 30 --trace 0
#
# Every file the build writes (compiler cache, temporaries, the binary)
# stays under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
