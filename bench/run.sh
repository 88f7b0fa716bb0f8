#!/usr/bin/env bash
# The command BENCHMARK.json declares. It builds the benchmark from the
# sources of the checkout it is started in and runs it, keeping everything it
# writes (Go build cache, binary, WAL files) under .bench_build/ in that
# checkout. Arguments are passed through to the program (see bench/main.go).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a checkout that holds the program's sources" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
go build -o "$build/sfbench" ./bench
exec "$build/sfbench" -tmp "$build/tmp" "$@"
