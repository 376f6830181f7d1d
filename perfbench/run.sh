#!/usr/bin/env bash
# Builds ccsd and the benchmark program from the checkout this script sits
# in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload solve-miss --seed 1 --seconds 15 --trace 0
#
# Every build artifact and cache goes under .bench_build/ at the root of
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/ccsd || ! -d internal ]]; then
	echo "perfbench: $root holds no repro module to build (need go.mod, cmd/ccsd, internal/)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go build -o "$build/bin/ccsd" ./cmd/ccsd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -ccsd "$build/bin/ccsd" -root "$root" -out "$build/results" "$@"
