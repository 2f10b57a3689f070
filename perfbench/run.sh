#!/usr/bin/env bash
# Builds ffwdserve and the perfbench program from this checkout's source,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under the checkout's
# .bench_build directory ($CARGO_TARGET_DIR when set): binaries, the Go
# build cache, data dirs, trace captures and span files.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp" "$out/work"

# /usr/local/go/bin is the Go distribution's default install location.
command -v go >/dev/null 2>&1 || PATH=$PATH:/usr/local/go/bin
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/ffwdserve" ./cmd/ffwdserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/ffwdserve" -workdir "$out/work" \
	-config perfbench/workloads.json "$@"
