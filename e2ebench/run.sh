#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits
# in, then runs it from the checkout's root with the given arguments:
#
#   bash e2ebench/run.sh --workload dense-l7 --seed 1 --seconds 20 --trace 0
#
# Build cache, binary, journals, traces and CPU profiles all go under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command's own config and telemetry live under the user config
# directory, pprof's scratch under PPROF_TMPDIR: keep both in the checkout.
export XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# A checkout without the scanner's module beside this directory fails
# here, before any result is printed.
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
