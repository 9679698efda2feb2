package scenario

import (
	"context"
	"testing"

	"intertubes/internal/fiber"
)

// alloc_test.go guards the overlay path's allocation story: applying
// a weight mask to a warmed scratch row allocates nothing, and an
// overlay evaluation never pays for a per-scenario map clone — it
// allocates less than one clone of the map. The guards skip
// under -short (perf gates, not correctness) and under the race
// detector (instrumentation allocates), matching the graph package's
// convention.

func skipIfAllocsUnmeasurable(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation guard skipped under the race detector")
	}
}

func TestMaskWeightsZeroAllocs(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	res, mx := build(t)
	eng := New(res, mx, Options{Seed: 42})
	snap := eng.snapshot()
	snap.baseline()

	dst := make([]float64, snap.g.NumEdges())
	baseRow := snap.ispW[0]
	gains := []fiber.ConduitID{3, 7}
	cuts := mx.TopShared(5)
	if avg := testing.AllocsPerRun(100, func() {
		maskWeights(dst, baseRow, gains, cuts)
	}); avg != 0 {
		t.Fatalf("maskWeights allocates %.1f per run, want 0", avg)
	}
}

// TestOverlayEvaluateNoMapClone pins the tentpole claim: the overlay
// path never deep-copies the map. One clone of the full atlas costs
// about a thousand allocations (conduit slices, tenant lists,
// indexes); a warmed overlay evaluation must allocate less than a
// single clone, so any map copy added to the path fails the guard. The
// clone oracle, which makes two copies, calibrates the measurement: it
// must register at least those two clones' allocations.
func TestOverlayEvaluateNoMapClone(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	res, mx := build(t)
	eng := New(res, mx, Options{Seed: 42})
	snap := eng.snapshot()
	ctx := context.Background()
	sc := Scenario{CutMostShared: 5}

	// Warm both paths (baseline memos, pooled scratch).
	if _, err := eng.Evaluate(ctx, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := referenceEvaluate(ctx, eng, snap, sc); err != nil {
		t.Fatal(err)
	}

	ovAllocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Evaluate(ctx, sc); err != nil {
			t.Fatal(err)
		}
	})
	clAllocs := testing.AllocsPerRun(10, func() {
		if _, err := referenceEvaluate(ctx, eng, snap, sc); err != nil {
			t.Fatal(err)
		}
	})
	cloneAllocs := testing.AllocsPerRun(10, func() { res.Map.Clone() })

	if clAllocs < 2*cloneAllocs {
		t.Fatalf("clone oracle allocates %.0f per run, below its two map clones (%.0f each) — the measurement is broken",
			clAllocs, cloneAllocs)
	}
	if ovAllocs >= cloneAllocs {
		t.Fatalf("overlay Evaluate allocates %.0f per run vs %.0f for one map clone (clone oracle %.0f) — overlay path is paying for map copies",
			ovAllocs, cloneAllocs, clAllocs)
	}
}
