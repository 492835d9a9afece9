#!/usr/bin/env bash
# Builds the benchmark and the eigenpro binary from the source tree in the
# current directory (the repository root), then runs one workload:
#
#   bash perfbench/run.sh --workload train-mnist --seed 1 --seconds 8 --trace 0
#
# The Go build cache, both binaries and per-run scratch files stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/bin/perfbench" .
go build -o "$out/bin/eigenpro" ./cmd/eigenpro
exec "$out/bin/perfbench" -eigenpro "$out/bin/eigenpro" -workdir "$out" "$@"
