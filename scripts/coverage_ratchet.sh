#!/usr/bin/env bash
# coverage_ratchet.sh — statement-coverage ratchet for the protocol and
# topology packages (internal/core + internal/xrand: the phase-plan
# subsystem and its bit-level coin machinery; internal/seedagree: the seed
# machine the state bank's rows and the per-node Alg share;
# internal/workload: the open-loop traffic engine; internal/dualgraph +
# internal/geo: the dual graph, its construction and patching, and the
# grid index; internal/sim + internal/sched: the round engine and the link
# schedulers). Runs
# `go test -coverprofile` over the packages and fails when the combined
# percentage falls below the committed floor, so coverage can only move
# up: raise FLOOR here when it improves.
#
# Usage: scripts/coverage_ratchet.sh [profile-out]
#   profile-out  where to write the merged cover profile
#                (default coverage.out; CI uploads it as an artifact)
set -euo pipefail

# Committed floor: measured 84.9% when the ratchet landed over core and
# xrand, 87.0% with internal/workload, 92.7% with internal/dualgraph and
# internal/geo, 93.2% both before and after internal/seedagree joined, and
# 92.4% when internal/sim and internal/sched joined.
FLOOR=${COVERAGE_FLOOR:-90.0}
profile=${1:-coverage.out}

go test -coverprofile="$profile" -covermode=atomic ./internal/core/ ./internal/xrand/ ./internal/seedagree/ \
  ./internal/workload/ ./internal/dualgraph/ ./internal/geo/ ./internal/sim/ ./internal/sched/

total=$(go tool cover -func="$profile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
if [ -z "$total" ]; then
  echo "coverage_ratchet: could not read total from $profile" >&2
  exit 2
fi
echo "coverage_ratchet: internal/core + xrand + seedagree + workload + dualgraph + geo + sim + sched at ${total}% (floor ${FLOOR}%)"
if awk -v t="$total" -v f="$FLOOR" 'BEGIN { exit !(t + 0 < f + 0) }'; then
  echo "coverage_ratchet: ${total}% fell below the committed floor ${FLOOR}%" >&2
  exit 1
fi
