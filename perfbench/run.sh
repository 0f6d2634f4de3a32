#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write (binary, Go build cache, databases, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"

(cd "$here" && go build -o "$build/perfbench" .)

PERFBENCH_GIT_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
PERFBENCH_SOURCE_DIGEST=$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)
export PERFBENCH_GIT_COMMIT PERFBENCH_SOURCE_DIGEST

exec "$build/perfbench" "$@"
