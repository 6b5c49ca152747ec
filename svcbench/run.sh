#!/usr/bin/env bash
# The one command: builds and runs the service benchmark from any working
# directory, keeping every build product inside the checkout.
#
#   bash svcbench/run.sh                       # four workloads, full report
#   bash svcbench/run.sh --workload sim-heavy.local --seed 7 --seconds 20 --trace 1
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
exec go run . "$@"
