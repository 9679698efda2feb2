package scenario

import (
	"context"
	"math"
	"reflect"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/latency"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
)

// atlas_test.go pins the overlay row-reuse rule: a scenario atlas that
// reuses untouched baseline rows must be byte-identical to a
// from-scratch build — both over the overlay view and over the fully
// materialized perturbed map.

// sameAtlas compares two atlases row by row with exact float equality
// (+Inf entries included) plus the derived pair tables.
func sameAtlas(t *testing.T, label string, got, want *latency.Atlas) {
	t.Helper()
	if got.NumSources() != want.NumSources() {
		t.Fatalf("%s: sources %d vs %d", label, got.NumSources(), want.NumSources())
	}
	for i := 0; i < want.NumSources(); i++ {
		gr, wr := got.Row(i), want.Row(i)
		if len(gr) != len(wr) {
			t.Fatalf("%s: row %d length %d vs %d", label, i, len(gr), len(wr))
		}
		for v := range wr {
			if gr[v] != wr[v] && !(gr[v] != gr[v] && wr[v] != wr[v]) {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, v, gr[v], wr[v])
			}
		}
	}
	if !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
		t.Fatalf("%s: pair tables diverge", label)
	}
}

// referenceAtlases rebuilds sc's perturbation the way LatencyAtlasFor
// does and returns the two from-scratch references: a no-reuse build
// over the overlay view, and a build over the materialized map.
func referenceAtlases(t *testing.T, eng *Engine, sc Scenario) (*latency.Atlas, *latency.Atlas) {
	t.Helper()
	ctx := context.Background()
	snap := eng.snapshot()
	m := snap.res.Map
	p, err := snap.perturb(sc)
	if err != nil {
		t.Fatal(err)
	}
	ov := p.ov
	viewed, err := latency.BuildView(ctx, m, ov.Final(), nil, nil, latency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := latency.Build(ctx, ov.Materialize(), latency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return viewed, materialized
}

func TestLatencyAtlasForDifferential(t *testing.T) {
	eng := newEngine(t, 0)
	_, mx := build(t)
	m := eng.snapshot().res.Map
	keyOf := func(id fiber.NodeID) string { return m.Node(id).Key() }
	scenarios := []struct {
		name string
		sc   Scenario
	}{
		{"empty", Scenario{}},
		{"explicit-cuts", Scenario{CutConduits: []fiber.ConduitID{0, 5, 9}}},
		{"shared-cuts", Scenario{CutMostShared: 5}},
		{"remove-isp", Scenario{RemoveISPs: []string{mx.ISPs[0]}}},
		{"addition", Scenario{Additions: []Addition{{A: keyOf(0), B: keyOf(7)}}}},
		{"mixed", Scenario{CutMostShared: 3, Additions: []Addition{{A: keyOf(2), B: keyOf(11)}}}},
	}
	ctx := context.Background()
	for _, tc := range scenarios {
		t.Run(tc.name, func(t *testing.T) {
			got, err := eng.LatencyAtlasFor(ctx, tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			viewed, materialized := referenceAtlases(t, eng, tc.sc)
			sameAtlas(t, "vs overlay view", got, viewed)
			sameAtlas(t, "vs materialized map", got, materialized)
		})
	}
}

// TestLatencyAtlasForEmptyReusesEveryRow: an empty perturbation
// touches no lit component, so every baseline row is copied verbatim.
func TestLatencyAtlasForEmptyReusesEveryRow(t *testing.T) {
	eng := newEngine(t, 0)
	ctx := context.Background()
	base, _, err := eng.LatencyAtlas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	at, err := eng.LatencyAtlasFor(ctx, Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if at.ReusedRows != base.NumSources() {
		t.Fatalf("ReusedRows = %d, want %d", at.ReusedRows, base.NumSources())
	}
	sameAtlas(t, "empty scenario vs baseline", at, base)
}

// TestLatencyAtlasForIslandReuse: on a two-island map, cutting the
// far island's only conduit must leave the near island's rows reused
// — the component rule recomputes only what the cut can reach.
func TestLatencyAtlasForIslandReuse(t *testing.T) {
	m := fiber.NewMap()
	a := m.AddNode("A", "XX", geo.Point{Lat: 40, Lon: -100}, 1000000, -1)
	b := m.AddNode("B", "XX", geo.Point{Lat: 40, Lon: -98}, 1000000, -1)
	c := m.AddNode("C", "XX", geo.Point{Lat: 41, Lon: -99}, 1000000, -1)
	d := m.AddNode("D", "YY", geo.Point{Lat: 33, Lon: -84}, 1000000, -1)
	e := m.AddNode("E", "YY", geo.Point{Lat: 34, Lon: -85}, 1000000, -1)
	mk := func(x, y fiber.NodeID, corr int) fiber.ConduitID {
		id := m.EnsureConduit(x, y, corr, geo.GreatCircle(m.Node(x).Loc, m.Node(y).Loc, 2))
		m.AddTenant(id, "X")
		return id
	}
	mk(a, b, 0)
	mk(a, c, 1)
	mk(c, b, 2)
	bridge := mk(d, e, 3)

	eng := New(&mapbuilder.Result{Map: m}, risk.Build(m, nil), Options{Seed: 42})
	ctx := context.Background()
	at, err := eng.LatencyAtlasFor(ctx, Scenario{CutConduits: []fiber.ConduitID{bridge}})
	if err != nil {
		t.Fatal(err)
	}
	if at.ReusedRows != 3 {
		t.Fatalf("ReusedRows = %d, want 3 (the untouched island)", at.ReusedRows)
	}
	_, materialized := referenceAtlases(t, eng, Scenario{CutConduits: []fiber.ConduitID{bridge}})
	sameAtlas(t, "island cut vs materialized", at, materialized)
	// The cut darkened D-E: the atlas must show them disconnected.
	if di := at.RowIndex(d); !math.IsInf(at.Row(di)[e], 1) {
		t.Fatalf("D->E after cut = %v, want +Inf", at.Row(di)[e])
	}
}

// TestLatencyAtlasMemoized: the baseline atlas is built once per
// snapshot and rebuilt only after a baseline swap.
func TestLatencyAtlasMemoized(t *testing.T) {
	res, mx := build(t)
	eng := New(res, mx, Options{Seed: 42})
	ctx := context.Background()
	at1, v1, err := eng.LatencyAtlas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	at2, v2, err := eng.LatencyAtlas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if at1 != at2 || v1 != v2 {
		t.Fatal("second LatencyAtlas call rebuilt the memoized atlas")
	}
	eng.SwapBaseline(res, mx)
	at3, v3, err := eng.LatencyAtlas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("version did not advance across SwapBaseline")
	}
	if at3 == at1 {
		t.Fatal("swapped baseline served the old snapshot's atlas")
	}
	sameAtlas(t, "same inputs across swap", at3, at1)
}

// TestLatencyAtlasForResolvesScenario: LatencyAtlasFor and ResolveCuts
// resolve their scenario exactly as Evaluate does. A preset contributes
// its clauses — its atlas equals the expanded form's and recomputes
// rows the perturbation touches — and an invalid spec is rejected
// instead of evaluated.
func TestLatencyAtlasForResolvesScenario(t *testing.T) {
	eng := newEngine(t, 0)
	ctx := context.Background()
	base, _, err := eng.LatencyAtlas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PresetNames() {
		expanded, err := Resolve(Scenario{Preset: name})
		if err != nil {
			t.Fatal(err)
		}
		viaPreset, err := eng.LatencyAtlasFor(ctx, Scenario{Preset: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		viaExpanded, err := eng.LatencyAtlasFor(ctx, expanded)
		if err != nil {
			t.Fatalf("%s expanded: %v", name, err)
		}
		sameAtlas(t, name+" preset vs expanded", viaPreset, viaExpanded)
		if viaPreset.ReusedRows != viaExpanded.ReusedRows {
			t.Errorf("%s: ReusedRows %d via preset, %d expanded", name, viaPreset.ReusedRows, viaExpanded.ReusedRows)
		}
		if viaPreset.ReusedRows == base.NumSources() {
			t.Errorf("%s: preset atlas reused every baseline row; its clauses were dropped", name)
		}
	}

	cuts, err := eng.ResolveCuts(Scenario{Preset: "top12-cut"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 12 {
		t.Errorf("ResolveCuts(top12-cut) = %d conduits, want 12", len(cuts))
	}

	for _, bad := range []Scenario{
		{Preset: "no-such-preset"},
		{CutConduits: []fiber.ConduitID{-1}},
		{CutMostShared: -1},
		{Regions: []Region{{Lat: 30, Lon: -90, RadiusKm: 0}}},
		{Additions: []Addition{{A: "x", B: "x"}}},
	} {
		if _, err := eng.LatencyAtlasFor(ctx, bad); err == nil {
			t.Errorf("LatencyAtlasFor(%+v) accepted an invalid scenario", bad)
		}
		if _, err := eng.ResolveCuts(bad); err == nil {
			t.Errorf("ResolveCuts(%+v) accepted an invalid scenario", bad)
		}
	}
}
