#!/usr/bin/env bash
# Entry point of the repository benchmark (the "command" of BENCHMARK.json).
# Run it from the root of a checkout:
#
#   bash bench/run.sh --workload osm2d_mem --seed 1 --seconds 25 --trace 0
#
# It builds the four programs under test, the harness and the probe into
# .bench_build/bin (git-ignored) and then hands over to the harness. The
# build runs every time, so what is measured is always the checkout as it
# stands; with Go's build cache under .bench_build/ too, a build that has
# nothing to do takes half a second. Everything the build and the run
# write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/knnjoin" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench: $root is not the root of a knnjoin checkout (go.mod, cmd/knnjoin and bench/ must be here)" >&2
	exit 2
fi

work=$root/.bench_build
bin=$work/bin
mkdir -p "$bin" "$work/tmp"
(
	# Keep the toolchain's own files inside the checkout and off the
	# network: no module downloads, no toolchain switch.
	export GOCACHE=$work/gocache GOPATH=$work/gopath XDG_CONFIG_HOME=$work/xdg
	export TMPDIR=$work/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
	cd "$root"
	go build -o "$bin/" ./cmd/datagen ./cmd/knnjoin ./cmd/knnindex ./cmd/knnserve ./cmd/knntrace
	cd "$root/bench"
	go build -o "$bin/" . ./probe
) >&2 || { echo "bench: build failed" >&2; exit 2; }
exec "$bin/bench" "$@"
