#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with every argument passed through. Run it from the checkout root:
#
#   bash benchmark/run.sh --workload warm --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, store directories and span files all live
# under .bench_build (or $CARGO_TARGET_DIR when set), inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$work/tmp"
work=$(cd "$work" && pwd)

export GOCACHE="$work/go/cache" GOPATH="$work/go/path" XDG_CONFIG_HOME="$work/go/config"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C "$here" build -o "$work/ecssbench" . >&2
exec "$work/ecssbench" -workdir "$work" "$@"
