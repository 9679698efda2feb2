package scenario

import (
	"context"
	"sync"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/records"
	"intertubes/internal/risk"
)

// reference_bench_test.go holds the "clone" halves of the scenario
// evaluation benchmark pairs: the clone-per-scenario oracle on the
// workloads whose "overlay" halves live in the repository root's
// bench_test.go. Sub-benchmark names match, so `make bench-smoke`
// runs both halves of each pair.

var (
	benchOnce sync.Once
	benchRes  *mapbuilder.Result
	benchMx   *risk.Matrix
)

// benchBaseline builds the baseline intertubes.NewStudy builds at seed
// 42 (the root benchmarks' shared study), so both halves of each pair
// run on the same map.
func benchBaseline() (*mapbuilder.Result, *risk.Matrix) {
	benchOnce.Do(func() {
		benchRes = mapbuilder.Build(mapbuilder.Options{
			Seed:    42,
			Records: records.Options{FalseTenantRate: 0.04},
		})
		benchMx = risk.Build(benchRes.Map, nil)
	})
	return benchRes, benchMx
}

// BenchmarkScenarioEvaluate times one oracle evaluation per iteration
// on a warmed engine.
func BenchmarkScenarioEvaluate(b *testing.B) {
	res, mx := benchBaseline()
	sc := Scenario{CutMostShared: 5}
	ctx := context.Background()
	b.Run("clone", func(b *testing.B) {
		eng := New(res, mx, Options{Seed: 42})
		snap := eng.snapshot()
		if _, err := referenceEvaluate(ctx, eng, snap, sc); err != nil { // warm: baseline memo
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := referenceEvaluate(ctx, eng, snap, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScenarioEvaluateCapacity times the oracle on a circular
// disaster at the first node, the capacity-stage workload.
func BenchmarkScenarioEvaluateCapacity(b *testing.B) {
	res, mx := benchBaseline()
	loc := res.Map.Node(0).Loc
	sc := Scenario{Regions: []Region{{Lat: loc.Lat, Lon: loc.Lon, RadiusKm: 150}}}
	ctx := context.Background()
	b.Run("clone", func(b *testing.B) {
		eng := New(res, mx, Options{Seed: 42})
		snap := eng.snapshot()
		r, err := referenceEvaluate(ctx, eng, snap, sc) // warm: baseline + capacity memo
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r, err = referenceEvaluate(ctx, eng, snap, sc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.LostTraffic.LostGbps, "lost-gbps")
	})
}

// BenchmarkScenarioSweep times the oracle over the root benchmark's
// disaster-grid batch at all CPUs; scenarios/op normalizes the grid
// size.
func BenchmarkScenarioSweep(b *testing.B) {
	res, mx := benchBaseline()
	m := res.Map
	n := m.NumNodes()
	// The same batch as scenarioSweepBatch in the root bench_test.go:
	// ten circular disasters spread across the atlas plus the global
	// what-ifs a campaign mixes in.
	batch := make([]Scenario, 0, 16)
	for i := 0; i < 10; i++ {
		loc := m.Node(fiber.NodeID(i * n / 10)).Loc
		batch = append(batch, Scenario{Regions: []Region{{Lat: loc.Lat, Lon: loc.Lon, RadiusKm: 120}}})
	}
	batch = append(batch,
		Scenario{CutMostShared: 2},
		Scenario{CutMostShared: 5},
		Scenario{CutMostBetween: 3},
		Scenario{RemoveISPs: mx.ISPs[:1]},
		Scenario{Additions: []Addition{{A: m.Node(0).Key(), B: m.Node(fiber.NodeID(n - 1)).Key()}}},
		Scenario{},
	)
	ctx := context.Background()
	b.Run("clone", func(b *testing.B) {
		eng := New(res, mx, Options{Seed: 42})
		if warm := referenceSweep(ctx, eng, batch[:1], 1); warm[0].Err != "" {
			b.Fatal(warm[0].Err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, o := range referenceSweep(ctx, eng, batch, 0) {
				if o.Err != "" {
					b.Fatal(o.Err)
				}
			}
		}
		b.ReportMetric(float64(len(batch)), "scenarios/op")
	})
}
