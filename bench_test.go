package intertubes_test

// bench_test.go regenerates every table and figure of the paper's
// evaluation as a benchmark, one per artifact (see DESIGN.md's
// per-experiment index), plus ablations of the design choices called
// out there. Run:
//
//	go test -bench=. -benchmem
//
// The benchmarks measure the cost of regenerating each artifact and
// report its headline number as a custom metric where one exists.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"intertubes"
	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/latency"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/mitigate"
	"intertubes/internal/obs"
	"intertubes/internal/records"
	"intertubes/internal/risk"
	"intertubes/internal/scenario"
	"intertubes/internal/traceroute"
)

var (
	benchOnce  sync.Once
	benchStudy *intertubes.Study
	benchRes   *mapbuilder.Result
	benchMx    *risk.Matrix
)

func sharedStudy() *intertubes.Study {
	benchOnce.Do(func() {
		benchStudy = intertubes.NewStudy(intertubes.Options{
			Seed:            42,
			Probes:          60000,
			LatencyMaxPairs: 1500,
			AddConduits:     5,
		})
		benchRes = benchStudy.Result()
		benchMx = benchStudy.RiskMatrix()
	})
	return benchStudy
}

// BenchmarkTable1_InitialMap regenerates Table 1: the full §2
// pipeline, reporting per-ISP node/link counts.
func BenchmarkTable1_InitialMap(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s := intertubes.NewStudy(intertubes.Options{Seed: 42})
		out = s.RenderTable1()
	}
	if len(out) == 0 {
		b.Fatal("empty artifact")
	}
}

// BenchmarkFigure1_MapConstruction regenerates the Figure 1 map and
// reports its headline statistics.
func BenchmarkFigure1_MapConstruction(b *testing.B) {
	var nodes, links, conduits int
	for i := 0; i < b.N; i++ {
		res := mapbuilder.Build(mapbuilder.Options{Seed: 42})
		st := res.Map.Stats()
		nodes, links, conduits = st.Nodes, st.Links, st.Conduits
	}
	b.ReportMetric(float64(nodes), "nodes")
	b.ReportMetric(float64(links), "links")
	b.ReportMetric(float64(conduits), "conduits")
}

// BenchmarkFigure4_Colocation regenerates the §3 co-location analysis
// (the ArcGIS-substitute overlap engine over every conduit).
func BenchmarkFigure4_Colocation(b *testing.B) {
	s := sharedStudy()
	res := benchRes
	var meanRoad float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := geo.NewOverlapAnalyzer(map[string][]geo.Polyline{
			"road": res.Atlas.RoadPolylines(),
			"rail": res.Atlas.RailPolylines(),
		}, geo.OverlapOptions{BufferKm: 15})
		var road float64
		n := 0
		for j := range res.Map.Conduits {
			c := &res.Map.Conduits[j]
			if len(c.Tenants) == 0 {
				continue
			}
			road += an.Analyze(c.Path).Fractions["road"]
			n++
		}
		meanRoad = road / float64(n)
	}
	_ = s
	b.ReportMetric(meanRoad, "mean-road-frac")
}

// BenchmarkFigure6_SharingCounts regenerates Figure 6 from the risk
// matrix.
func BenchmarkFigure6_SharingCounts(b *testing.B) {
	sharedStudy()
	var ge2 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mx := risk.Build(benchRes.Map, nil)
		counts := mx.SharingCounts()
		ge2 = counts[1]
	}
	b.ReportMetric(float64(ge2), "conduits-ge2")
}

// BenchmarkFigure7_ISPRanking regenerates Figure 7.
func BenchmarkFigure7_ISPRanking(b *testing.B) {
	sharedStudy()
	var most float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := benchMx.Ranking()
		most = r[len(r)-1].Mean
	}
	b.ReportMetric(most, "max-avg-sharing")
}

// BenchmarkFigure8_Hamming regenerates Figure 8's distance matrix.
func BenchmarkFigure8_Hamming(b *testing.B) {
	sharedStudy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := benchMx.Hamming()
		if len(h) != 20 {
			b.Fatal("wrong matrix size")
		}
	}
}

// BenchmarkFigure9_TrafficCDF regenerates Figure 9: a traceroute
// campaign plus the sharing CDF shift.
func BenchmarkFigure9_TrafficCDF(b *testing.B) {
	sharedStudy()
	var shift float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp := traceroute.Run(benchRes, traceroute.Options{N: 20000, Seed: 7})
		pub, over := camp.SharingWithTraffic()
		var sp, so int
		for j := range pub {
			sp += pub[j]
			so += over[j]
		}
		shift = float64(so)/float64(len(over)) - float64(sp)/float64(len(pub))
	}
	b.ReportMetric(shift, "avg-tenant-shift")
}

// BenchmarkTable2_WestEast regenerates Table 2 from a fresh campaign.
func BenchmarkTable2_WestEast(b *testing.B) {
	sharedStudy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp := traceroute.Run(benchRes, traceroute.Options{N: 20000, Seed: 7})
		if len(camp.TopConduits(20, true)) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable3_EastWest regenerates Table 3 (ranking only; the
// campaign is shared with the study).
func BenchmarkTable3_EastWest(b *testing.B) {
	s := sharedStudy()
	camp := s.Campaign()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(camp.TopConduits(20, false)) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable4_ISPConduits regenerates Table 4's provider ranking.
func BenchmarkTable4_ISPConduits(b *testing.B) {
	s := sharedStudy()
	camp := s.Campaign()
	var topConduits int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := camp.TopISPs(10)
		topConduits = rows[0].Conduits
	}
	b.ReportMetric(float64(topConduits), "top-isp-conduits")
}

// BenchmarkFigure10_Robustness regenerates Figure 10: the §5.1
// framework over the most-shared conduits.
func BenchmarkFigure10_Robustness(b *testing.B) {
	s := sharedStudy()
	targets := s.TargetConduits()
	var avgPI float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := mitigate.RobustnessSuggestion(benchRes.Map, benchMx, targets, 3)
		var sum float64
		n := 0
		for _, r := range rows {
			if r.Evaluated > 0 {
				sum += r.PI.Avg
				n++
			}
		}
		avgPI = sum / float64(n)
	}
	b.ReportMetric(avgPI, "avg-path-inflation")
}

// BenchmarkTable5_Peering regenerates Table 5 and reports how often
// Level 3 is the suggested peer.
func BenchmarkTable5_Peering(b *testing.B) {
	s := sharedStudy()
	targets := s.TargetConduits()
	var level3 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := mitigate.RobustnessSuggestion(benchRes.Map, benchMx, targets, 3)
		level3 = 0
		for _, r := range rows {
			for _, p := range r.SuggestedPeers {
				if p == "Level 3" {
					level3++
				}
			}
		}
	}
	b.ReportMetric(float64(level3), "level3-suggestions")
}

// BenchmarkFigure11_AddLinks regenerates Figure 11's greedy sweep
// (k=3 per iteration to keep the benchmark honest but affordable).
func BenchmarkFigure11_AddLinks(b *testing.B) {
	sharedStudy()
	var added int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mitigate.AddConduits(benchRes.Map, benchMx, mitigate.AddOptions{K: 3})
		added = len(res.Additions)
	}
	b.ReportMetric(float64(added), "conduits-added")
}

// BenchmarkFigure12_Latency regenerates Figure 12's delay study.
func BenchmarkFigure12_Latency(b *testing.B) {
	sharedStudy()
	var bestEqROW float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study := mitigate.LatencyStudy(benchRes.Map, benchRes.Atlas, mitigate.LatencyOptions{MaxPairs: 800})
		bestEqROW = mitigate.Summarize(study).BestEqualsROW
	}
	b.ReportMetric(bestEqROW, "best-eq-row-frac")
}

// BenchmarkRecordsInference measures the §2 step-2/4 substrate: full
// tenant inference over every conduit in the corpus.
func BenchmarkRecordsInference(b *testing.B) {
	sharedStudy()
	inf := records.NewInference(benchRes.Index)
	isps := mapbuilder.MappedNames()
	refs := benchRes.Corpus.Refs()
	var found int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found = 0
		for _, ref := range refs {
			found += len(inf.TenantsFor(ref, isps, 8))
		}
	}
	b.ReportMetric(float64(found)/float64(len(refs)), "tenants-per-conduit")
}

// ---- Graph kernel micro-benchmarks. ----
//
// The §5 analyses are dominated by shortest-path queries, so the
// kernel's steady-state cost is tracked directly: each benchmark
// reuses one workspace across iterations, exactly as the sweeps do
// (see DESIGN.md "Graph kernel memory layout"). Run with -benchmem:
// the allocs/op column is the contract.

// BenchmarkDijkstraSweep measures single-source distance queries over
// the built map graph, cycling the source across all vertices.
func BenchmarkDijkstraSweep(b *testing.B) {
	sharedStudy()
	g := benchRes.Map.Graph()
	wf := benchRes.Map.LitWeight()
	ws := graph.NewWorkspace()
	dst := make([]float64, g.NumVertices())
	dst = g.ShortestDistancesWS(ws, 0, wf, dst) // warm: CSR build + workspace growth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.ShortestDistancesWS(ws, i%g.NumVertices(), wf, dst)
	}
	b.ReportMetric(float64(g.NumVertices()), "vertices")
}

// BenchmarkKShortestPaths measures Yen's algorithm (k=4, the latency
// study's setting) between city pairs cycled across the graph.
func BenchmarkKShortestPaths(b *testing.B) {
	sharedStudy()
	g := benchRes.Map.Graph()
	wf := benchRes.Map.LitWeight()
	ws := graph.NewWorkspace()
	n := g.NumVertices()
	g.KShortestPathsWS(ws, 0, n/2, 4, wf) // warm: CSR build + workspace growth
	var paths int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % n
		dst := (i + n/2) % n
		if src == dst {
			dst = (dst + 1) % n
		}
		paths += len(g.KShortestPathsWS(ws, src, dst, 4, wf))
	}
	b.ReportMetric(float64(paths)/float64(b.N), "paths/op")
}

// BenchmarkEdgeBetweenness measures the all-sources Brandes pass the
// resilience analysis runs to pick backhoe targets.
func BenchmarkEdgeBetweenness(b *testing.B) {
	sharedStudy()
	g := benchRes.Map.Graph()
	wf := benchRes.Map.LitWeight()
	ws := graph.NewWorkspace()
	dst := make([]float64, g.NumEdges())
	dst = g.EdgeBetweennessWS(ws, wf, dst) // warm: CSR build + workspace growth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.EdgeBetweennessWS(ws, wf, dst)
	}
	b.ReportMetric(float64(g.NumEdges()), "edges")
}

// BenchmarkMaxFlow measures the Dinic max-flow kernel over the built
// map graph with wavelength-derived capacities, cycling source/sink
// across vertices. Run with -benchmem: the steady-state contract is
// zero allocs/op (the workspace owns every scratch structure).
func BenchmarkMaxFlow(b *testing.B) {
	sharedStudy()
	m := benchRes.Map
	g := m.Graph()
	caps := make([]float64, g.NumEdges())
	for eid := range caps {
		caps[eid] = fiber.ConduitCapacityGbps(m, fiber.ConduitID(eid))
	}
	ws := graph.NewWorkspace()
	n := g.NumVertices()
	g.MaxFlowWS(ws, 0, n/2, caps, nil) // warm: CSR build + workspace growth
	var total float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % n
		dst := (i + n/2) % n
		if src == dst {
			dst = (dst + 1) % n
		}
		total += g.MaxFlowWS(ws, src, dst, caps, nil)
	}
	b.ReportMetric(total/float64(b.N), "gbps/op")
}

// ---- Ablations (design choices called out in DESIGN.md). ----

// BenchmarkAblationBufferWidth sweeps the Figure 4 co-location buffer.
func BenchmarkAblationBufferWidth(b *testing.B) {
	sharedStudy()
	for _, buffer := range []float64{10, 20, 40} {
		b.Run(formatKm(buffer), func(b *testing.B) {
			var meanAny float64
			for i := 0; i < b.N; i++ {
				an := geo.NewOverlapAnalyzer(map[string][]geo.Polyline{
					"road": benchRes.Atlas.RoadPolylines(),
					"rail": benchRes.Atlas.RailPolylines(),
				}, geo.OverlapOptions{BufferKm: buffer})
				var any float64
				n := 0
				for j := range benchRes.Map.Conduits {
					c := &benchRes.Map.Conduits[j]
					if len(c.Tenants) == 0 {
						continue
					}
					any += an.Analyze(c.Path).Any
					n++
				}
				meanAny = any / float64(n)
			}
			b.ReportMetric(meanAny, "mean-colocated-frac")
		})
	}
}

func formatKm(v float64) string {
	return "buffer-" + string(rune('0'+int(v)/10)) + string(rune('0'+int(v)%10)) + "km"
}

// BenchmarkAblationCampaignSize checks how quickly the Table 2 conduit
// ranking stabilizes with campaign size.
func BenchmarkAblationCampaignSize(b *testing.B) {
	sharedStudy()
	reference := traceroute.Run(benchRes, traceroute.Options{N: 100000, Seed: 7})
	refTop := topSet(reference, 20)
	for _, n := range []int{5000, 20000, 50000} {
		name := map[int]string{5000: "n-5k", 20000: "n-20k", 50000: "n-50k"}[n]
		b.Run(name, func(b *testing.B) {
			var overlap float64
			for i := 0; i < b.N; i++ {
				camp := traceroute.Run(benchRes, traceroute.Options{N: n, Seed: 7})
				got := topSet(camp, 20)
				match := 0
				for k := range got {
					if refTop[k] {
						match++
					}
				}
				overlap = float64(match) / 20
			}
			b.ReportMetric(overlap, "top20-overlap-vs-100k")
		})
	}
}

func topSet(c *traceroute.Campaign, n int) map[string]bool {
	out := make(map[string]bool, n)
	for _, r := range c.TopConduits(n, true) {
		out[r.A+"|"+r.B] = true
	}
	return out
}

// BenchmarkAblationAlignCandidates sweeps step 3's candidate-path
// count and reports alignment accuracy against ground truth.
func BenchmarkAblationAlignCandidates(b *testing.B) {
	for _, k := range []int{1, 3, 5} {
		name := map[int]string{1: "k-1", 3: "k-3", 5: "k-5"}[k]
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				res := mapbuilder.Build(mapbuilder.Options{Seed: 42, AlignCandidates: k})
				acc = res.Report.AlignmentAccuracy()
			}
			b.ReportMetric(acc, "alignment-accuracy")
		})
	}
}

// BenchmarkAblationRecordsNoise sweeps public-records corpus quality
// and reports step-2 validation rate.
func BenchmarkAblationRecordsNoise(b *testing.B) {
	for _, cov := range []float64{0.5, 0.9, 1.0} {
		name := map[float64]string{0.5: "coverage-50", 0.9: "coverage-90", 1.0: "coverage-100"}[cov]
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				res := mapbuilder.Build(mapbuilder.Options{
					Seed:    42,
					Records: records.Options{Coverage: cov, TenantRecall: 0.9, Seed: 43},
				})
				rate = float64(res.Report.Step2Validated) / float64(res.Report.Step2Checked)
			}
			b.ReportMetric(rate, "step2-validation-rate")
		})
	}
}

// BenchmarkAblationOccupancyDiscount compares the sharing tail with
// the shared-trench economics on and off.
func BenchmarkAblationOccupancyDiscount(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "discount-on"
		if disable {
			name = "discount-off"
		}
		b.Run(name, func(b *testing.B) {
			var tail int
			var mean float64
			for i := 0; i < b.N; i++ {
				res := mapbuilder.Build(mapbuilder.Options{Seed: 42, DisableOccupancyDiscount: disable})
				mx := risk.Build(res.Map, nil)
				tail = len(mx.SharedAtLeast(15))
				mean = mx.MeanSharing()
			}
			b.ReportMetric(float64(tail), "conduits-ge15")
			b.ReportMetric(mean, "mean-sharing")
		})
	}
}

// BenchmarkAblationGreedyVsExact compares the fast summed-SR candidate
// scorer with the exact minimax scorer in the §5.2 optimizer.
func BenchmarkAblationGreedyVsExact(b *testing.B) {
	sharedStudy()
	for _, exact := range []bool{false, true} {
		name := "approx"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			var meanImpr float64
			for i := 0; i < b.N; i++ {
				res := mitigate.AddConduits(benchRes.Map, benchMx, mitigate.AddOptions{K: 3, Exact: exact})
				var sum float64
				n := 0
				for _, series := range res.Improvement {
					sum += series[len(series)-1]
					n++
				}
				meanImpr = sum / float64(n)
			}
			b.ReportMetric(meanImpr, "mean-improvement")
		})
	}
}

// BenchmarkLatencyImprovements measures the §5.3 constructive
// analysis: proposing ROW-following builds.
func BenchmarkLatencyImprovements(b *testing.B) {
	sharedStudy()
	study := mitigate.LatencyStudy(benchRes.Map, benchRes.Atlas, mitigate.LatencyOptions{MaxPairs: 800})
	b.ResetTimer()
	var saved float64
	for i := 0; i < b.N; i++ {
		imps := mitigate.LatencyImprovements(benchRes.Map, benchRes.Atlas, study, 10, mitigate.LatencyOptions{})
		saved = 0
		for _, imp := range imps {
			saved += imp.SavedMs
		}
	}
	b.ReportMetric(saved, "total-ms-saved-top10")
}

// ---- Worker-pool scaling (the internal/par substrate). ----
//
// Each pair below times the same computation at workers=1 and at the
// machine's CPU count; the outputs are bit-identical by construction
// (see DESIGN.md "Parallel execution"), so the only difference the
// pair can show is wall-clock speedup. On a multi-core machine the
// campaign and latency variants should scale near-linearly; on a
// uniprocessor both variants collapse to the serial path.

func workerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	// Uniprocessor: still exercise the pooled code path.
	return []int{1, 2}
}

// BenchmarkWorkersColocation times the Figure 4 co-location scan over
// every tenanted conduit via OverlapAnalyzer.AnalyzeAll.
func BenchmarkWorkersColocation(b *testing.B) {
	sharedStudy()
	an := geo.NewOverlapAnalyzer(map[string][]geo.Polyline{
		"road": benchRes.Atlas.RoadPolylines(),
		"rail": benchRes.Atlas.RailPolylines(),
	}, geo.OverlapOptions{BufferKm: 15})
	var pls []geo.Polyline
	for j := range benchRes.Map.Conduits {
		c := &benchRes.Map.Conduits[j]
		if len(c.Tenants) > 0 {
			pls = append(pls, c.Path)
		}
	}
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out := an.AnalyzeAll(pls, w); len(out) != len(pls) {
					b.Fatal("short result")
				}
			}
		})
	}
}

// BenchmarkWorkersCampaign times the Figure 9 traceroute campaign.
func BenchmarkWorkersCampaign(b *testing.B) {
	sharedStudy()
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var total int
			for i := 0; i < b.N; i++ {
				camp := traceroute.Run(benchRes, traceroute.Options{N: 20000, Seed: 7, Workers: w})
				total = camp.Total
			}
			b.ReportMetric(float64(total), "probes-kept")
		})
	}
}

// BenchmarkWorkersLatencyStudy times the Figure 12 all-pairs sweep.
func BenchmarkWorkersLatencyStudy(b *testing.B) {
	sharedStudy()
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var pairs int
			for i := 0; i < b.N; i++ {
				study := mitigate.LatencyStudy(benchRes.Map, benchRes.Atlas,
					mitigate.LatencyOptions{MaxPairs: 800, Workers: w})
				pairs = len(study)
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// BenchmarkWorkersAddConduits times the Figure 11 candidate-scoring
// scan inside the greedy sweep.
func BenchmarkWorkersAddConduits(b *testing.B) {
	sharedStudy()
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var added int
			for i := 0; i < b.N; i++ {
				res := mitigate.AddConduits(benchRes.Map, benchMx, mitigate.AddOptions{K: 3, Workers: w})
				added = len(res.Additions)
			}
			b.ReportMetric(float64(added), "conduits-added")
		})
	}
}

// ---- Scenario engine: clone vs overlay evaluation. ----
//
// Each benchmark below has an "overlay" sub-benchmark here, timing the
// engine's copy-on-write evaluation (see DESIGN.md "Snapshot
// overlays"), and a "clone" sub-benchmark of the same name in
// internal/scenario/reference_bench_test.go, timing the
// clone-per-scenario test oracle on the same workload. The two produce
// byte-identical Result JSON — the differential suite in
// internal/scenario pins that — so the pair measures pure evaluation
// cost.

// scenarioSweepBatch is a representative disaster grid: a sweep of
// localized circular disaster footprints centered on map nodes
// spread across the atlas (the ROADMAP's disaster-grid scale item),
// plus the global what-ifs a campaign mixes in — escalating
// shared-conduit cuts, a provider removal, and a new build.
func scenarioSweepBatch() []scenario.Scenario {
	isps := benchMx.ISPs
	m := benchRes.Map
	batch := make([]scenario.Scenario, 0, 16)
	n := m.NumNodes()
	for i := 0; i < 10; i++ {
		loc := m.Node(fiber.NodeID(i * n / 10)).Loc
		batch = append(batch, scenario.Scenario{
			Regions: []scenario.Region{{Lat: loc.Lat, Lon: loc.Lon, RadiusKm: 120}},
		})
	}
	batch = append(batch,
		scenario.Scenario{CutMostShared: 2},
		scenario.Scenario{CutMostShared: 5},
		scenario.Scenario{CutMostBetween: 3},
		scenario.Scenario{RemoveISPs: isps[:1]},
		scenario.Scenario{Additions: []scenario.Addition{{
			A: m.Node(0).Key(), B: m.Node(fiber.NodeID(n - 1)).Key(),
		}}},
		scenario.Scenario{},
	)
	return batch
}

// BenchmarkScenarioEvaluate times one what-if evaluation per
// iteration on a warmed engine.
func BenchmarkScenarioEvaluate(b *testing.B) {
	sharedStudy()
	sc := scenario.Scenario{CutMostShared: 5}
	ctx := context.Background()
	b.Run("overlay", func(b *testing.B) {
		eng := scenario.New(benchRes, benchMx, scenario.Options{Seed: 42})
		if _, err := eng.Evaluate(ctx, sc); err != nil { // warm: baseline memo, scratch pools
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate(ctx, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScenarioEvaluateCapacity times a circular-disaster
// evaluation — the workload whose cost the capacity stage (gravity
// demands + max-flow per touched pair) rides on — on a warmed engine.
// The lost-gbps metric is the severity the heatmap plots; it is
// byte-identical to the clone half's by the differential suite.
func BenchmarkScenarioEvaluateCapacity(b *testing.B) {
	sharedStudy()
	loc := benchRes.Map.Node(0).Loc
	sc := scenario.Scenario{
		Regions: []scenario.Region{{Lat: loc.Lat, Lon: loc.Lon, RadiusKm: 150}},
	}
	ctx := context.Background()
	b.Run("overlay", func(b *testing.B) {
		eng := scenario.New(benchRes, benchMx, scenario.Options{Seed: 42})
		r, err := eng.Evaluate(ctx, sc) // warm: baseline + capacity memo
		if err != nil {
			b.Fatal(err)
		}
		if r.LostTraffic == nil {
			b.Fatal("no lost-traffic delta")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r, err = eng.Evaluate(ctx, sc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.LostTraffic.LostGbps, "lost-gbps")
	})
}

// BenchmarkTracingOverhead pins the flight recorder's evaluation-path
// cost: the same warmed overlay evaluation with the recorder off
// (plain Evaluate, nothing records) and on (every iteration records a
// full span tree into the store, attrs, exemplars and all). cmd/
// benchjson derives the on/off ns-per-op ratio into BENCH_obs.json;
// the acceptance bar is ratio <= 1.05.
func BenchmarkTracingOverhead(b *testing.B) {
	sharedStudy()
	sc := scenario.Scenario{CutMostShared: 5}
	ctx := context.Background()
	for _, mode := range []struct {
		name   string
		record bool
	}{
		{"recorder=off", false},
		{"recorder=on", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := scenario.New(benchRes, benchMx, scenario.Options{Seed: 42})
			if _, err := eng.Evaluate(ctx, sc); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ectx := ctx
				var sp *obs.Span
				if mode.record {
					ectx, sp = obs.StartTrace(ctx, "bench.evaluate")
				}
				if _, err := eng.Evaluate(ectx, sc); err != nil {
					b.Fatal(err)
				}
				sp.End()
			}
		})
	}
}

// BenchmarkGridSweep times the batch subsystem's workload: plan the
// exhaustive disaster grid, sweep every cell, reduce each outcome, and
// assemble the GeoJSON heatmap — one full sweep job minus checkpoint
// I/O. cmd/benchjson derives cells/sec from the "cells" metric; that
// is the headline throughput of the jobs subsystem.
func BenchmarkGridSweep(b *testing.B) {
	sharedStudy()
	eng := scenario.New(benchRes, benchMx, scenario.Options{Seed: 42})
	plan, version, err := eng.PlanGrid(scenario.GridSpec{CellKm: 500, RadiiKm: []float64{100, 250}})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	scs := make([]scenario.Scenario, len(plan.Cells))
	for i, c := range plan.Cells {
		scs[i] = c.Scenario()
	}
	warm := scenario.Sweep(ctx, eng, scs[:1], 1)
	if warm[0].Err != "" {
		b.Fatal(warm[0].Err)
	}
	var artifact []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := scenario.Sweep(ctx, eng, scs, 0)
		cells := make([]scenario.CellOutcome, len(outs))
		for j := range outs {
			if outs[j].Err != "" {
				b.Fatal(outs[j].Err)
			}
			cells[j] = scenario.ReduceCell(plan.Cells[j], outs[j])
		}
		if artifact, err = scenario.BuildHeatmap(plan.Geom(), version, cells).GeoJSON(); err != nil {
			b.Fatal(err)
		}
	}
	if len(artifact) == 0 {
		b.Fatal("empty artifact")
	}
	b.ReportMetric(float64(len(plan.Cells)), "cells")
}

// BenchmarkScenarioSweep times the full disaster-grid batch through
// Sweep at all CPUs; scenarios/op normalizes the grid size.
func BenchmarkScenarioSweep(b *testing.B) {
	sharedStudy()
	batch := scenarioSweepBatch()
	ctx := context.Background()
	b.Run("overlay", func(b *testing.B) {
		eng := scenario.New(benchRes, benchMx, scenario.Options{Seed: 42})
		warm := scenario.Sweep(ctx, eng, batch[:1], 1)
		if warm[0].Err != "" {
			b.Fatal(warm[0].Err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := scenario.Sweep(ctx, eng, batch, 0)
			for j := range out {
				if out[j].Err != "" {
					b.Fatal(out[j].Err)
				}
			}
		}
		b.ReportMetric(float64(len(batch)), "scenarios/op")
	})
}

// BenchmarkLatencyAtlas pins the atlas speedup claim: the all-pairs
// city latency table computed per-pair (one early-stopped Dijkstra
// per pair — the asymptotics the §5.3 study grew up on) against the
// source-batched build (one full Dijkstra per city). Both halves
// produce byte-identical pair tables, verified before timing. The
// "row" sub-benchmark times one warm per-source row fill; its
// allocs/op must read 0 in BENCH_obs.json — the steady state of the
// batched kernel.
func BenchmarkLatencyAtlas(b *testing.B) {
	sharedStudy()
	ctx := context.Background()
	ref, err := latency.PairsPerPair(ctx, benchRes.Map, latency.Options{})
	if err != nil {
		b.Fatal(err)
	}
	warm, err := latency.Build(ctx, benchRes.Map, latency.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Pairs(), ref) {
		b.Fatal("batched atlas diverges from the per-pair reference")
	}

	b.Run("per-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := latency.PairsPerPair(ctx, benchRes.Map, latency.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			at, err := latency.Build(ctx, benchRes.Map, latency.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if len(at.Pairs()) != len(ref) {
				b.Fatal("pair count changed")
			}
		}
	})
	b.Run("row", func(b *testing.B) {
		g := benchRes.Map.Graph()
		wf := benchRes.Map.LitWeight()
		ws := graph.NewWorkspace()
		row := make([]float64, g.NumVertices())
		src := int(warm.Source(0))
		g.ShortestDistancesWS(ws, src, wf, row)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.ShortestDistancesWS(ws, src, wf, row)
		}
	})
}
