#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write (Go build cache, binary, datasets,
# traces) stays under this directory, in .build/ and out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p .build/gotmp
export GOCACHE="$PWD/.build/gocache" GOTMPDIR="$PWD/.build/gotmp" GOTOOLCHAIN=local
go build -o .build/benchmark .
exec .build/benchmark "$@"
