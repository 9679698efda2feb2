package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/mitigate"
	"intertubes/internal/risk"
)

var (
	cachedRes *mapbuilder.Result
	cachedMx  *risk.Matrix
)

// build returns one shared baseline study for the package's tests; the
// engine never mutates it, so sharing is safe.
func build(t *testing.T) (*mapbuilder.Result, *risk.Matrix) {
	t.Helper()
	if cachedRes == nil {
		cachedRes = mapbuilder.Build(mapbuilder.Options{Seed: 42})
		cachedMx = risk.Build(cachedRes.Map, nil)
	}
	return cachedRes, cachedMx
}

func newEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	res, mx := build(t)
	return New(res, mx, Options{Seed: 42, Workers: workers})
}

func TestEvaluateCutScenario(t *testing.T) {
	eng := newEngine(t, 0)
	r, err := eng.Evaluate(context.Background(), Scenario{Preset: "top12-cut"})
	if err != nil {
		t.Fatal(err)
	}
	if r.ConduitsCut != 12 {
		t.Errorf("ConduitsCut = %d, want 12", r.ConduitsCut)
	}
	if r.TenanciesCut == 0 {
		t.Error("cutting the most-shared conduits severed no tenancies")
	}
	if r.Stats.After.Links >= r.Stats.Before.Links {
		t.Errorf("links should drop: %d -> %d", r.Stats.Before.Links, r.Stats.After.Links)
	}
	if r.Hash == "" || r.Scenario.Preset != "" {
		t.Errorf("result should carry hash + resolved scenario: %+v", r.Scenario)
	}
	if len(r.Sharing) == 0 || len(r.Ranking) == 0 || len(r.Disconnection) == 0 || len(r.Partition) == 0 {
		t.Fatalf("missing delta sections: %+v", r)
	}
	// The most-shared conduits are shared by nearly every provider, so
	// the top of the sharing distribution must shrink.
	top := r.Sharing[len(r.Sharing)-1]
	if top.After >= top.Before && top.Before > 0 {
		t.Errorf("top sharing bucket did not shrink: %+v", top)
	}
	// A pure-cut scenario can only lose connectivity: After >= Before
	// for every provider.
	for _, d := range r.Disconnection {
		if d.After < d.Before {
			t.Errorf("disconnection for %s improved under a cut: %v -> %v", d.ISP, d.Before, d.After)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	// Same scenario, fresh engines, different worker counts: the
	// results must be deeply equal — this is what makes the hash a safe
	// cache key.
	sc := Scenario{Preset: "gulf-hurricane"}
	var results []*Result
	for _, workers := range []int{1, 4} {
		eng := newEngine(t, workers)
		r, err := eng.Evaluate(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("evaluation differs across worker counts")
	}
}

func TestEvaluateRemoveISP(t *testing.T) {
	res, mx := build(t)
	eng := newEngine(t, 0)
	victim := mx.ISPs[0]
	r, err := eng.Evaluate(context.Background(), Scenario{RemoveISPs: []string{victim}})
	if err != nil {
		t.Fatal(err)
	}
	if r.LinksRemoved != len(res.Map.ConduitsOf(victim)) {
		t.Errorf("LinksRemoved = %d, want %d", r.LinksRemoved, len(res.Map.ConduitsOf(victim)))
	}
	for _, rk := range r.Ranking {
		if rk.ISP == victim {
			t.Errorf("removed provider %s still ranked", victim)
		}
	}
	for _, d := range r.Disconnection {
		if d.ISP == victim {
			t.Errorf("removed provider %s still in disconnection table", victim)
		}
	}
	if len(r.Ranking) != len(mx.ISPs)-1 {
		t.Errorf("ranking rows = %d, want %d", len(r.Ranking), len(mx.ISPs)-1)
	}
}

func TestEvaluateAddition(t *testing.T) {
	res, _ := build(t)
	eng := newEngine(t, 0)
	a, b := res.Map.Node(0).Key(), res.Map.Node(1).Key()
	r, err := eng.Evaluate(context.Background(), Scenario{
		Additions: []Addition{{A: a, B: b, Tenants: []string{"Level 3"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ConduitsAdded != 1 {
		t.Errorf("ConduitsAdded = %d, want 1", r.ConduitsAdded)
	}
	if r.Stats.After.Links != r.Stats.Before.Links+1 {
		t.Errorf("links %d -> %d, want +1", r.Stats.Before.Links, r.Stats.After.Links)
	}

	if _, err := eng.Evaluate(context.Background(), Scenario{
		Additions: []Addition{{A: "Nowhere,ZZ", B: a}},
	}); err == nil {
		t.Error("unknown node key should fail evaluation")
	}
}

func TestEvaluateLatencyAndTraffic(t *testing.T) {
	eng := newEngine(t, 0)
	r, err := eng.Evaluate(context.Background(), Scenario{
		Preset:         "top12-cut",
		IncludeLatency: true,
		IncludeTraffic: true,
		Overrides:      Overrides{LatencyMaxPairs: 120, Probes: 4000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency == nil || r.Latency.MaxPairs != 120 {
		t.Fatalf("latency delta missing or wrong cap: %+v", r.Latency)
	}
	if r.Latency.Before.Pairs == 0 {
		t.Error("baseline latency study found no pairs")
	}
	if r.Traffic == nil || r.Traffic.Probes != 4000 {
		t.Fatalf("traffic delta missing or wrong probes: %+v", r.Traffic)
	}
	if r.Traffic.Before.Conduits == 0 {
		t.Error("baseline traffic overlay saw no conduits")
	}
}

func TestResolveCutsUnion(t *testing.T) {
	eng := newEngine(t, 0)
	shared := eng.snapshot().mx.TopShared(3)
	sc, err := Resolve(Scenario{
		CutConduits:   []fiber.ConduitID{shared[0], 0},
		CutMostShared: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := eng.ResolveCuts(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := dedupeIDs(append([]fiber.ConduitID{shared[0], 0}, shared...))
	if !reflect.DeepEqual(cuts, want) {
		t.Errorf("cuts = %v, want union %v", cuts, want)
	}

	if _, err := eng.ResolveCuts(Scenario{CutConduits: []fiber.ConduitID{1 << 30}}); err == nil {
		t.Error("out-of-range conduit should fail")
	}
}

func TestRegionCutsMatchResilience(t *testing.T) {
	eng := newEngine(t, 0)
	sc, err := Resolve(Scenario{Preset: "gulf-hurricane"})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := eng.ResolveCuts(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) == 0 {
		t.Fatal("a 350 km Gulf Coast disaster cut nothing")
	}
}

func TestFromAdditions(t *testing.T) {
	res, _ := build(t)
	m := res.Map
	adds := FromAdditions(m, nil)
	if len(adds) != 0 {
		t.Errorf("FromAdditions(nil) = %v", adds)
	}
	// Round-trip one synthetic addition through the converter.
	out := FromAdditions(m, []mitigate.Addition{{A: 0, B: 1}})
	if len(out) != 1 || out[0].A != m.Node(0).Key() || out[0].B != m.Node(1).Key() {
		t.Errorf("FromAdditions = %+v", out)
	}
}

func TestRenderResult(t *testing.T) {
	eng := newEngine(t, 0)
	r, err := eng.Evaluate(context.Background(), Scenario{Preset: "level3-exit"})
	if err != nil {
		t.Fatal(err)
	}
	text := Render(r)
	for _, want := range []string{"level3-exit", "providers removed", "Sharing distribution", "Risk ranking", "Minimum cuts"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
}
