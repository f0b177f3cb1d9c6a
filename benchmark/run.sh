#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout, with the Go build cache kept there too so nothing is written
# outside the checkout, and runs it from the root with the given flags.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
cold=0
[ -x "$build/prepare-bench" ] || cold=1
go build -C "$root/benchmark" -o "$build/prepare-bench" .
cd "$root"
if [ "$cold" = 1 ]; then
	# A fresh checkout has just been idle or compiling, and the sandbox
	# runs the same code up to 1.5x slower for the first minute of load
	# after either (README, "Steadiness"). One untimed window brings it to
	# the speed the runs that follow will see; its result is thrown away.
	"$build/prepare-bench" --workload fleet_tan --seconds 45 --trace 0 >/dev/null 2>&1 || true
fi
exec "$build/prepare-bench" "$@"
