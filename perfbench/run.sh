#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Usage, from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload table1|recovery|resolve --seed N \
#       --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, temporary files, the binary and the traced
# run's span file. The last line of standard output is the result JSON.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/config" "${out}/gopath"

export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/tmp"
# The go command's telemetry and env file live under the user's config
# directory, and its module cache under GOPATH: keep both in the checkout.
export XDG_CONFIG_HOME="${out}/config"
export GOPATH="${out}/gopath"
export GOFLAGS=
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off
export GOTOOLCHAIN=local

if ! (cd "${root}/perfbench" && go build -o "${out}/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "${out}/perfbench" -out "${out}" "$@"
