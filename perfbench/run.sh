#!/usr/bin/env bash
# Builds hybridgcd and the benchmark from this checkout, then runs one
# workload. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload oltp-wire --seed 1 --seconds 10 --trace 0
#
# Everything it writes (binaries, the Go build cache, data directories)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# Telemetry off: the go command would otherwise leave a detached child
# process behind that keeps writing after this script exits.
printf off > "$build/config/go/telemetry/mode"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$build/bin/hybridgcd" ./cmd/hybridgcd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -hybridgcd "$build/bin/hybridgcd" -work "$build/work" "$@"
