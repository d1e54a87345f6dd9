#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes (the binary, the Go build cache) stays under
# .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
