#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload hot_topics --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh selftest
#   bash perfbench/run.sh steady --workload hot_topics --runs 5
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binary, WAL directories, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/home" "${out}/gocache" "${out}/gopath"
export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home/.config"
export XDG_CACHE_HOME="${out}/home/.cache"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
cd "${root}"
exec "${out}/perfbench" "$@"
