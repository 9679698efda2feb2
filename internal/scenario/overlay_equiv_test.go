package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"intertubes/internal/fiber"
)

// overlay_equiv_test.go is the clone-vs-overlay differential harness:
// the engine's copy-on-write evaluation must produce byte-identical
// Result JSON to the clone-per-scenario oracle (referenceEvaluate)
// for every preset, for randomized composite scenarios, across engine
// reuse (pooled scratch), and at any sweep worker count.

func evalJSON(t *testing.T, eng *Engine, sc Scenario) []byte {
	t.Helper()
	r, err := eng.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatalf("evaluate %+v: %v", sc, err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refJSON is evalJSON through the clone-per-scenario oracle.
func refJSON(t *testing.T, eng *Engine, sc Scenario) []byte {
	t.Helper()
	r, err := referenceEvaluate(context.Background(), eng, eng.snapshot(), sc)
	if err != nil {
		t.Fatalf("reference evaluate %+v: %v", sc, err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// diffJSON pinpoints the first divergence so a failure is debuggable.
func diffJSON(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	hiG, hiW := i+120, i+120
	if hiG > len(got) {
		hiG = len(got)
	}
	if hiW > len(want) {
		hiW = len(want)
	}
	t.Errorf("%s: overlay and reference Results diverge at byte %d:\n overlay: …%s…\n reference: …%s…",
		label, i, got[lo:hiG], want[lo:hiW])
}

// equivScenarios is the deterministic part of the differential corpus:
// the zero scenario, every preset, and composites exercising each
// interaction the overlay must replicate (cut a merged addition,
// re-add a removed provider, open-access additions, overlapping cut
// clauses).
func equivScenarios(t *testing.T) []Scenario {
	t.Helper()
	res, mx := build(t)
	m := res.Map
	k0, k1 := m.Node(0).Key(), m.Node(1).Key()
	kLast := m.Node(fiber.NodeID(m.NumNodes() - 1)).Key()

	scs := []Scenario{
		{}, // zero scenario: nothing perturbed, everything reused
	}
	for _, name := range PresetNames() {
		scs = append(scs, Scenario{Preset: name})
	}
	scs = append(scs,
		// Cut an explicit conduit plus overlapping most-shared set.
		Scenario{CutConduits: mx.TopShared(2)[:1], CutMostShared: 4},
		// Remove two providers and cut conduits they occupied.
		Scenario{RemoveISPs: mx.ISPs[:2], CutMostShared: 3},
		// Remove a provider and explicitly re-add it on a new build.
		Scenario{
			RemoveISPs: []string{mx.ISPs[0]},
			Additions:  []Addition{{A: k0, B: kLast, Tenants: []string{mx.ISPs[0]}}},
		},
		// Open-access addition (touches every kept provider).
		Scenario{Additions: []Addition{{A: k0, B: kLast}}},
		// Addition that merges with an existing corridor-less conduit,
		// then cut underneath it.
		Scenario{
			CutConduits: mx.TopShared(1),
			Additions:   []Addition{{A: k0, B: k1, Tenants: []string{mx.ISPs[1]}}},
		},
		// Everything at once.
		Scenario{
			CutMostShared:  3,
			CutMostBetween: 3,
			Regions:        []Region{{Lat: 29.95, Lon: -90.07, RadiusKm: 250}},
			RemoveISPs:     []string{mx.ISPs[2]},
			Additions: []Addition{
				{A: k0, B: kLast, Tenants: []string{mx.ISPs[0], mx.ISPs[3]}},
				{A: k1, B: kLast},
			},
		},
	)
	return scs
}

func TestOverlayMatchesClonePresets(t *testing.T) {
	eng := newEngine(t, 0)
	for i, sc := range equivScenarios(t) {
		label := sc.Preset
		if label == "" {
			label = fmt.Sprintf("composite-%d", i)
		}
		diffJSON(t, label, evalJSON(t, eng, sc), refJSON(t, eng, sc))
	}
}

func TestOverlayMatchesCloneLatencyTraffic(t *testing.T) {
	eng := newEngine(t, 0)
	sc := Scenario{
		CutMostShared:  2,
		IncludeLatency: true,
		IncludeTraffic: true,
		Overrides:      Overrides{LatencyMaxPairs: 60, Probes: 2000},
	}
	diffJSON(t, "latency+traffic", evalJSON(t, eng, sc), refJSON(t, eng, sc))
}

// randomScenario draws a composite scenario over valid map entities.
func randomScenario(rng *rand.Rand, eng *Engine) Scenario {
	snap := eng.snapshot()
	m := snap.res.Map
	isps := snap.mx.ISPs
	var sc Scenario
	for i := 0; i < rng.Intn(4); i++ {
		sc.CutConduits = append(sc.CutConduits, fiber.ConduitID(rng.Intn(m.NumConduits())))
	}
	if rng.Intn(3) == 0 {
		sc.CutMostShared = rng.Intn(6)
	}
	if rng.Intn(4) == 0 {
		sc.CutMostBetween = rng.Intn(5)
	}
	if rng.Intn(4) == 0 {
		sc.Regions = []Region{{
			Lat: 25 + rng.Float64()*20, Lon: -120 + rng.Float64()*40,
			RadiusKm: 50 + rng.Float64()*300,
		}}
	}
	for i := 0; i < rng.Intn(3); i++ {
		sc.RemoveISPs = append(sc.RemoveISPs, isps[rng.Intn(len(isps))])
	}
	for i := 0; i < rng.Intn(3); i++ {
		a := rng.Intn(m.NumNodes())
		b := rng.Intn(m.NumNodes())
		if a == b {
			continue
		}
		var tenants []string
		for j := 0; j < rng.Intn(3); j++ { // 0 = open access
			tenants = append(tenants, isps[rng.Intn(len(isps))])
		}
		sc.Additions = append(sc.Additions, Addition{
			A: m.Node(fiber.NodeID(a)).Key(), B: m.Node(fiber.NodeID(b)).Key(), Tenants: tenants,
		})
	}
	return sc
}

func TestOverlayMatchesCloneRandomized(t *testing.T) {
	eng := newEngine(t, 0)
	rng := rand.New(rand.NewSource(7))
	n := 25
	if testing.Short() {
		n = 6
	}
	for trial := 0; trial < n; trial++ {
		sc := randomScenario(rng, eng)
		diffJSON(t, fmt.Sprintf("trial-%d", trial), evalJSON(t, eng, sc), refJSON(t, eng, sc))
	}
}

// TestOverlayEngineReuse pins scratch hygiene: one engine evaluating
// a sequence of scenarios twice (pooled workspaces, reused weight
// masks) must reproduce its own first-pass bytes exactly.
func TestOverlayEngineReuse(t *testing.T) {
	ovEng := newEngine(t, 0)
	scs := equivScenarios(t)
	first := make([][]byte, len(scs))
	for i, sc := range scs {
		first[i] = evalJSON(t, ovEng, sc)
	}
	for i, sc := range scs {
		diffJSON(t, fmt.Sprintf("reuse-%d", i), evalJSON(t, ovEng, sc), first[i])
	}
}

// TestSweepOverlayWorkerInvariance: a sweep's outcome bytes are
// identical at one worker and many, and identical to the clone
// oracle's sweep.
func TestSweepOverlayWorkerInvariance(t *testing.T) {
	ovEng := newEngine(t, 0)
	scs := equivScenarios(t)

	marshal := func(out []Outcome) []byte {
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ctx := context.Background()
	serial := marshal(Sweep(ctx, ovEng, scs, 1))
	parallel := marshal(Sweep(ctx, ovEng, scs, 8))
	diffJSON(t, "overlay 1-vs-8 workers", parallel, serial)
	cloneOut := marshal(referenceSweep(ctx, ovEng, scs, 4))
	diffJSON(t, "overlay-vs-clone sweep", serial, cloneOut)
}
