#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash swsmbench/run.sh --workload fig3-base --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.  Everything the build and the run
# write (Go build cache, binary, result stores, spans, profiles) stays
# under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd swsmbench && go build -o "$out/swsmbench" .)
exec "$out/swsmbench" -out "$out" "$@"
