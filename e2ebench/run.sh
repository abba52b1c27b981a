#!/usr/bin/env bash
# Builds Apollo's end-to-end benchmark from this checkout and runs it with
# the given arguments. Run it from anywhere in the repository:
#
#   bash e2ebench/run.sh --workload ingest-inproc --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the run's scratch files (archives,
# trace spans) stay inside the checkout, under .bench_build/ and .bench_run/.
# The build needs the repository's own packages: without them it fails and
# no result is printed.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
cd "$root"
exec "$build/e2ebench" -dir "$root/.bench_run" "$@"
