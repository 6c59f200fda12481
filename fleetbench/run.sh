#!/usr/bin/env bash
# Builds the fleet binaries and the benchmark driver from the checkout's
# sources, then runs the driver with this script's arguments:
#
#   bash fleetbench/run.sh --workload warm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything built or written stays under
# .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# Keep the toolchain's caches, temporaries, module path and telemetry under
# $out, and never reach for the network.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath \
  GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/bin/" ./cmd/sentineld ./cmd/sentinelfront >&2
(cd fleetbench && go build -o "$out/bin/fleetbench" .) >&2
exec "$out/bin/fleetbench" --bin "$out/bin" --out "$out" "$@"
