#!/usr/bin/env sh
# verify.sh — the tier-1 gate, a shuffled repeat run of the engine
# packages, and the race detector, in the order a reviewer would run
# them. Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

# Tests must not depend on run order or on state a previous run left
# behind: run the engine packages twice in one process, shuffled.
echo "==> go test -count=2 -shuffle=on (engine packages)"
go test -count=2 -shuffle=on ./internal/scenario ./internal/graph ./internal/resilience \
	./internal/latency ./internal/fiber ./internal/jobs ./internal/server \
	./internal/records ./internal/mapbuilder

echo "==> go test -race ./..."
go test -race ./...

# Fuzz smoke is part of the gate unless explicitly skipped
# (SKIP_FUZZ=1 sh scripts/verify.sh) — e.g. on machines where the
# fuzzing engine's per-target startup dominates.
if [ "${SKIP_FUZZ:-0}" != "1" ]; then
	echo "==> fuzz smoke"
	sh scripts/fuzz.sh
fi

echo "verify: all checks passed"
