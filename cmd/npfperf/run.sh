#!/usr/bin/env bash
# Builds npfperf from source and runs it with the given arguments, e.g.
#
#   bash cmd/npfperf/run.sh --workload fleet --seed 3 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file (CPU profiles
# included) go under .bench_build/ at the repository root; the build needs
# no network. Outside a full checkout the build fails, and so does this
# script.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$out/npfperf" .
exec "$out/npfperf" "$@"
