#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload crowd --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and trace files go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# The go command's config directory (its env file and telemetry counters)
# and GOPATH default to the home directory; keep them in the checkout too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The revision goes in by hand: Go's own VCS stamping fails the build where
# git refuses the checkout (another owner), and outside git there is none.
commit=unknown
if rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit=$rev
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit=$rev+dirty
	fi
fi
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/traces" "$@"
