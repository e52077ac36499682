#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Every file the toolchain writes (build cache, temporaries, the
# binary) lands under .bench_build in the checkout, nowhere else.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the toolchain's own counters and env file
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
# VCS stamping is off (the driver's checkout is not a repository, and a
# checkout inside someone else's repository must not fail the build); where
# git does know the commit, it goes into the result header this way.
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
go build -ldflags "-X main.buildCommit=$commit" -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
