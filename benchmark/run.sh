#!/usr/bin/env bash
# BENCHMARK.json's command: build the harness from source inside the
# checkout and run it with the arguments given. Everything the go tool and
# the harness write (build cache, temp files, the binary, checkpoint scratch)
# stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/ - run it from a checkout of the repo" >&2
	exit 3
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
