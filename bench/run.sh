#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of the repository:
#
#   bash bench/run.sh -workload analysis -seed 1
#
# The Go build cache, the go command's own configuration and telemetry
# files, the binary, temporary files and span files all stay under
# .bench_build in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/cellwheels-bench" .)
exec "$out/cellwheels-bench" "$@"
