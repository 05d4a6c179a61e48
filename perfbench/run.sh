#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload tester|campaign|explore|bughunt \
#       --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache, spans, profiles and temporary
# artifacts all stay under $CARGO_TARGET_DIR (default .bench_build) in
# the checkout. The build needs the repository's Go module one level
# up; without it the build fails and so does this script.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files in the
# checkout too.
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
