#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload solo-ooc --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the
# Go build cache, the binary, the synthesized checkpoint and trace files.
set -euo pipefail

if ! grep -qs '^module helmsim$' go.mod; then
	echo "perfbench: run from the root of a helmsim checkout (no helmsim go.mod here)" >&2
	exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local

go build -o "$out/bin/perfbench" ./perfbench
exec "$out/bin/perfbench" "$@"
