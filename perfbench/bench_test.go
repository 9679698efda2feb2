package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"intertubes"
	"intertubes/internal/fiber"
	"intertubes/internal/scenario"
)

var (
	mapOnce sync.Once
	testMap *fiber.Map
)

// studyMap builds, once, the map the generators plan against.
func studyMap(t *testing.T) *fiber.Map {
	t.Helper()
	mapOnce.Do(func() {
		testMap = intertubes.NewStudy(intertubes.Options{Seed: servedStudySeed, Workers: 1}).Map()
	})
	return testMap
}

func requestLines(rs []request) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.line()
	}
	return out
}

func gridLines(gs []gridOp) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.line()
	}
	return out
}

func TestSameSeedSameOpList(t *testing.T) {
	m := studyMap(t)
	a, b := requestLines(whatifRequests(7, m, whatifOps)), requestLines(whatifRequests(7, m, whatifOps))
	if !slices.Equal(a, b) || digest(a, len(a)) != digest(b, len(b)) {
		t.Fatal("whatif: one seed gave two op lists")
	}
	if other := requestLines(whatifRequests(8, m, whatifOps)); digest(other, len(other)) == digest(a, len(a)) {
		t.Fatal("whatif: two seeds gave one op list")
	}

	g1, err := gridOps(7, m, gridsweepOps)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := gridOps(7, m, gridsweepOps)
	if !slices.Equal(gridLines(g1), gridLines(g2)) {
		t.Fatal("gridsweep: one seed gave two op lists")
	}
	for i, g := range g1 {
		plan, err := scenario.PlanGrid(m, g.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Total() != g.Cells {
			t.Fatalf("grid op %d: planned %d cells, generator counted %d", i, plan.Total(), g.Cells)
		}
	}

	c1, c2 := newColdstart(7, 1).ops(), newColdstart(7, 1).ops()
	if !slices.Equal(c1, c2) || slices.Equal(c1, newColdstart(8, 1).ops()) {
		t.Fatal("coldstart: op lists do not follow the seed")
	}
}

func TestWhatifMix(t *testing.T) {
	m := studyMap(t)
	reqs := whatifRequests(5, m, whatifOps)
	counts := make(map[string]int)
	seen := make(map[string]int)
	for i, r := range reqs {
		counts[r.Class]++
		sc, err := decodeBody(r.Body)
		if err != nil {
			t.Fatalf("op %d: body does not decode: %v", i, err)
		}
		if sc.Hash() != r.Hash {
			t.Fatalf("op %d: body hashes to %s, planned %s", i, sc.Hash(), r.Hash)
		}
		if r.Class == "hit" {
			j, ok := seen[r.Hash]
			if !ok {
				t.Fatalf("op %d: repeat of a scenario never sent", i)
			}
			if string(reqs[j].Body) == string(r.Body) {
				t.Fatalf("op %d: repeat is not reordered", i)
			}
			distinctSince := 0
			for _, q := range reqs[j+1 : i] {
				if q.Class != "hit" {
					distinctSince++
				}
			}
			if distinctSince >= scenario.DefaultCacheCapacity {
				t.Fatalf("op %d: repeat target fell out of the cache's LRU window", i)
			}
			continue
		}
		if _, dup := seen[r.Hash]; dup {
			t.Fatalf("op %d: distinct scenario repeats a hash", i)
		}
		seen[r.Hash] = i
	}
	want := map[string]int{"hit": 250, "plain": 640, "latency": 110}
	for c, n := range want {
		if counts[c] != n {
			t.Errorf("%s requests: %d, want %d", c, counts[c], n)
		}
	}
}

func decodeBody(body []byte) (scenario.Scenario, error) {
	var sc scenario.Scenario
	err := json.Unmarshal(body, &sc)
	return sc, err
}

// TestPercentilesClearClassBoundaries checks that the planned whatif mix
// keeps every reported percentile at least minClassGap points from a
// class boundary, and that the rule refuses a percentile on a boundary.
func TestPercentilesClearClassBoundaries(t *testing.T) {
	counts := map[string]int{"hit": whatifHits, "plain": whatifPlain, "latency": whatifLatency}
	bounds := classBoundaries(counts, whatifClassOrder)
	if !slices.Equal(bounds, []float64{25, 89}) {
		t.Fatalf("boundaries %v, want [25 89]", bounds)
	}
	for _, p := range []float64{50, 99} {
		if gap := boundaryGap(p, bounds); gap < minClassGap {
			t.Errorf("p%g is %.1f points from a class boundary", p, gap)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	// A 10% latency class puts p90 on the boundary between plain and latency.
	tenPct := classBoundaries(map[string]int{"hit": 250, "plain": 650, "latency": 100}, whatifClassOrder)
	if _, _, ok := reportPercentile("op_p90_ms", xs, 90, tenPct); ok {
		t.Error("p90 on a class boundary was reported")
	}
	if _, _, ok := reportPercentile("op_p99_ms", xs, 99, bounds); !ok {
		t.Error("p99 of 1000 samples, 10 points from a boundary, was refused")
	}
	if _, _, ok := reportPercentile("op_p24_ms", xs, 24, bounds); ok {
		t.Error("p24, one point from the 25% boundary, was reported")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
		v      float64
	}{
		{19, 50, 9, false, 10},
		{20, 50, 10, true, 10},
		{999, 99, 9, false, 990}, // rank ceil(989.01) = 990
		{998, 99, 9, false, 989},
		{1000, 99, 10, true, 990},
	} {
		v, beyond, ok := percentile(seq(c.n), c.p)
		if v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("p%g of %d: got (%g, %d beyond, %t), want (%g, %d, %t)", c.p, c.n, v, beyond, ok, c.v, c.beyond, c.ok)
		}
	}
	if _, _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples was reported")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the benchmark's naming
// rule: a letter or digit, then letters, digits, '_', '.' and '-'.
func validMetricName(name string) bool { return metricName.MatchString(name) }

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	var names []string
	for name := range endToEnd {
		names = append(names, name)
	}
	for _, m := range perLayer {
		names = append(names, m.name)
	}
	for _, n := range names {
		if !validMetricName(n) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", n)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "p99/ms", "xé"} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory:", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, m := range bf.EndToEnd {
		got[m.Name] = m.Unit
	}
	if len(got) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(got), len(endToEnd))
	}
	for name, unit := range endToEnd {
		if got[name] != unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", name, got[name], unit)
		}
	}
	var file, prog []string
	for _, m := range bf.PerLayer {
		file = append(file, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		prog = append(prog, m.name+" "+m.unit)
	}
	sort.Strings(file)
	sort.Strings(prog)
	if !slices.Equal(file, prog) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", file, prog)
	}
}

// TestLayerTableAddsUp builds a table from hand-made spans: self times,
// replay estimates and the unattributed remainder must add up to the op.
func TestLayerTableAddsUp(t *testing.T) {
	spans := []span{
		{Name: "mapbuilder.build", Op: -1, Parent: -1, Within: -1, Start: 0, End: 50},
		{Name: "op", Op: 0, Parent: -1, Within: -1, Start: 100, End: 110},
		{Name: "server", Op: 0, Parent: 1, Within: -1, Start: 101, End: 109},
		{Name: "scenario.evaluate", Op: 0, Parent: -1, Within: 2, Replay: true, Start: 111, End: 116},
		{Name: "server.encode", Op: 0, Parent: -1, Within: 2, Replay: true, Start: 116, End: 117, Count: 800},
		{Name: "latency.atlas_for", Op: 0, Parent: -1, Within: -1, Replay: true, Start: 117, End: 120},
		{Name: "op", Op: 1, Parent: -1, Within: -1, Start: 200, End: 230},
		{Name: "server", Op: 1, Parent: 6, Within: -1, Start: 200, End: 229},
		{Name: "scenario.evaluate", Op: 1, Parent: -1, Within: 7, Replay: true, Start: 231, End: 251},
		{Name: "server.encode", Op: 1, Parent: -1, Within: 7, Replay: true, Start: 251, End: 252, Count: 1000},
	}
	lt := buildLayerTable("whatif", 1, spans)
	if lt.Ops != 2 || lt.OpMs != 20 {
		t.Fatalf("ops %d, mean %g; want 2 and 20", lt.Ops, lt.OpMs)
	}
	if sum := lt.inSumMs(); sum != lt.OpMs {
		t.Fatalf("rows add up to %g, op mean is %g", sum, lt.OpMs)
	}
	for _, c := range []struct {
		row       string
		perOp     float64
		perCall   float64
		countCall float64
	}{
		{"scenario.evaluate", 12.5, 12.5, 0},
		{"server.encode", 1, 1, 900},
		{"server.self", 5, 5, 0},      // (8-5-1 + 29-20-1) / 2
		{"unattributed", 1.5, 1.5, 0}, // (10-8 + 30-29) / 2
	} {
		r := lt.find(c.row)
		if r == nil {
			t.Fatalf("no row %s", c.row)
		}
		if r.MsPerOp != c.perOp || r.MsPerCall != c.perCall || r.Count != c.countCall || !r.InSum {
			t.Errorf("%s: %+v, want %g ms/op, %g ms/call, %g count/call, in sum", c.row, *r, c.perOp, c.perCall, c.countCall)
		}
	}
	if r := lt.find("latency.atlas_for"); r == nil || r.InSum || r.MsPerCall != 3 {
		t.Errorf("latency.atlas_for should be a 3 ms replay outside the sum: %+v", r)
	}
	if r := lt.find("mapbuilder.build"); r == nil || r.InSum || r.MsPerCall != 50 {
		t.Errorf("set-up row: %+v", r)
	}
	m := layerMetrics(lt, map[string]float64{"scenario.cache_hit_ratio": 0.25})
	if m["server.self_ms"].Value != 5 || m["server.encode_bytes"].Value != 900 || m["scenario.cache_hit_ratio"].Value != 0.25 {
		t.Errorf("layer metrics: %+v", m)
	}
}

func TestKeptShare(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(sec float64) time.Time { return t0.Add(time.Duration(sec * float64(time.Second))) }
	for _, c := range []struct {
		name string
		a, b mark
		cpus int
		want float64
	}{
		{"no steal", mark{t0, 10}, mark{at(2), 10}, 2, 1},
		{"a quarter stolen", mark{t0, 10}, mark{at(2), 11}, 2, 0.75},
		{"unreadable counter", mark{t0, 0}, mark{at(2), 0}, 0, 1},
		{"empty window", mark{t0, 10}, mark{t0, 10}, 2, 1},
		{"late tick", mark{t0, 10}, mark{at(0.01), 10.5}, 2, 0.05},
	} {
		if got := keptShare(c.a, c.b, c.cpus); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: kept %g, want %g", c.name, got, c.want)
		}
	}
}
