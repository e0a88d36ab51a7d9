#!/usr/bin/env bash
# Builds phomserve, phomgate and the benchmark from the checkout it is
# run in, then runs the benchmark with the given arguments. Run it from
# the repository root; build outputs, the Go build cache and the Go
# tool's own files stay under .bench_build.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/phomserve || ! -d cmd/phomgate || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a phom checkout" >&2
	exit 2
fi
out=.bench_build/perfbench
mkdir -p "$out"
export GOCACHE="$PWD/.bench_build/gocache" GOMODCACHE="$PWD/.bench_build/gomodcache" \
	XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/phomserve" ./cmd/phomserve >&2
go build -o "$out/phomgate" ./cmd/phomgate >&2
(cd perfbench && go build -o "../$out/perfbench" .) >&2
exec "$out/perfbench" -bin "$out" "$@"
