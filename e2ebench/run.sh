#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in this checkout and runs
# it. Run from the checkout root:
#
#   bash e2ebench/run.sh --workload invoke --seed 1 --seconds 10 --trace 0
#
# Every build artefact, cache and temporary file stays under the build
# directory ($CARGO_TARGET_DIR when set, .bench_build otherwise).
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config" "$build/traces"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -trace-dir "$build/traces" "$@"
