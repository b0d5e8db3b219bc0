#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark binary from source, then
# replace this shell with it, so one foreground process does the run.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the go tool writes stays under benchmark/out: build cache,
# module cache, and its config directory. GO_TELEMETRY_CHILD=2 tells
# cmd/go (Go >= 1.23) that the telemetry sidecar has been dealt with;
# without it the first go command of a day may fork a daemonised uploader
# that outlives the run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off
export GO_TELEMETRY_CHILD=2

(cd "$here" && go build -o "$out/bench" .)

cd "$here/.."
exec "$out/bench" "$@"
