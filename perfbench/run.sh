#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload fwd-skewed --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ at the repository root. The last line of
# standard output is the JSON result; build errors and diagnostics go to
# standard error.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

commit=none
if [ -d "$root/.git" ] && rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit=$rev
fi
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
