// Package intertubes reproduces "InterTubes: A Study of the US
// Long-haul Fiber-optic Infrastructure" (Durairajan, Barford, Sommers,
// Willinger — SIGCOMM 2015) as a Go library.
//
// A Study wires the whole reproduction together:
//
//	study := intertubes.NewStudy(intertubes.Options{Seed: 42})
//	fmt.Println(study.RenderFigure1())       // the long-haul map
//	fmt.Println(study.RenderFigure6())       // conduit sharing
//	fmt.Println(study.RenderTable5())        // peering suggestions
//
// The heavy stages — the §2 map construction, the §4.3 traceroute
// campaign, the §5 mitigation analyses — run lazily on first use and
// are cached. Everything is deterministic in Options.Seed.
//
// Each experiment is also accessible as data (Result, RiskMatrix,
// Campaign, ...) so downstream code can run its own analyses; the
// internal packages (geo, graph, atlas, fiber, records, mapbuilder,
// risk, traceroute, mitigate, report) are the implementation and are
// importable within this module.
package intertubes

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/mitigate"
	"intertubes/internal/obs"
	"intertubes/internal/par"
	"intertubes/internal/records"
	"intertubes/internal/report"
	"intertubes/internal/risk"
	"intertubes/internal/scenario"
	"intertubes/internal/traceroute"
)

// Options configures a Study.
type Options struct {
	// Seed drives every random choice; equal options give bit-
	// identical studies. Defaults to 42, the seed used throughout
	// EXPERIMENTS.md.
	Seed int64
	// Probes is the traceroute campaign size (default 200000; the
	// paper used 4.9M over three months).
	Probes int
	// RecordsCoverage, RecordsRecall, RecordsFalseRate tune the
	// public-records corpus noise (defaults 0.9 / 0.9 / 0.04).
	RecordsCoverage  float64
	RecordsRecall    float64
	RecordsFalseRate float64
	// AddConduits is the k of the §5.2 sweep (default 10).
	AddConduits int
	// ColocationBufferKm is the co-location buffer of §3 (default 15).
	ColocationBufferKm float64
	// LatencyMaxPairs caps the §5.3 study size (default 3000).
	LatencyMaxPairs int
	// Workers bounds the worker pool shared by the parallel analysis
	// stages — the §3 co-location overlap, the §4.3 campaign, the
	// §5.2 conduit sweep, and the §5.3 latency study. 0 means all
	// CPUs; 1 forces serial execution. Every stage produces
	// bit-identical results for any value (see DESIGN.md, "Parallel
	// execution").
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Probes == 0 {
		o.Probes = 200000
	}
	if o.RecordsCoverage == 0 {
		o.RecordsCoverage = 0.9
	}
	if o.RecordsRecall == 0 {
		o.RecordsRecall = 0.9
	}
	if o.RecordsFalseRate == 0 {
		o.RecordsFalseRate = 0.04
	}
	if o.AddConduits == 0 {
		o.AddConduits = 10
	}
	if o.ColocationBufferKm == 0 {
		o.ColocationBufferKm = 15
	}
	if o.LatencyMaxPairs == 0 {
		o.LatencyMaxPairs = 3000
	}
	return o
}

// Study is a complete, lazily evaluated reproduction of the paper.
type Study struct {
	opts Options

	res  *mapbuilder.Result
	mx   *risk.Matrix
	camp *traceroute.Campaign
	lat  []mitigate.PairLatency
	rob  []mitigate.ISPRobustness
	add  *mitigate.AddResult
	colo []geo.Colocation
	scen *scenario.Cache
}

// NewStudy builds the long-haul map (§2) and the risk matrix (§4.1).
func NewStudy(opts Options) *Study {
	opts = opts.withDefaults()
	buildCtx, buildSpan := obs.Trace(context.Background(), "study.mapbuild")
	res := mapbuilder.BuildCtx(buildCtx, mapbuilder.Options{
		Seed: opts.Seed,
		Records: records.Options{
			Coverage:        opts.RecordsCoverage,
			TenantRecall:    opts.RecordsRecall,
			FalseTenantRate: opts.RecordsFalseRate,
			Seed:            opts.Seed + 1,
		},
	})
	buildSpan.SetItems(int64(len(res.Map.Conduits)))
	buildSpan.End()
	_, riskSpan := obs.Trace(context.Background(), "study.riskmatrix")
	mx := risk.Build(res.Map, nil)
	riskSpan.SetItems(int64(len(res.Map.Conduits)))
	riskSpan.End()
	return &Study{
		opts: opts,
		res:  res,
		mx:   mx,
	}
}

// Result exposes the full §2 build (map, atlas, corpus, ground truth).
func (s *Study) Result() *mapbuilder.Result { return s.res }

// Map returns the constructed long-haul fiber map.
func (s *Study) Map() *fiber.Map { return s.res.Map }

// RiskMatrix returns the §4.1 risk matrix over the 20 mapped ISPs.
func (s *Study) RiskMatrix() *risk.Matrix { return s.mx }

// Campaign runs (once) and returns the §4.3 traceroute campaign.
func (s *Study) Campaign() *traceroute.Campaign {
	if s.camp == nil {
		ctx, sp := obs.Trace(context.Background(), "study.campaign")
		sp.SetWorkers(par.Workers(s.opts.Workers))
		s.camp, _ = traceroute.RunCtx(ctx, s.res, traceroute.Options{
			N:       s.opts.Probes,
			Seed:    s.opts.Seed + 2,
			Workers: s.opts.Workers,
		}) // background-derived ctx: cannot fail
		sp.SetItems(int64(s.camp.Total))
		sp.End()
	}
	return s.camp
}

// Latency runs (once) and returns the §5.3 study.
func (s *Study) Latency() []mitigate.PairLatency {
	if s.lat == nil {
		_, sp := obs.Trace(context.Background(), "study.latency")
		sp.SetWorkers(par.Workers(s.opts.Workers))
		s.lat = mitigate.LatencyStudy(s.res.Map, s.res.Atlas, mitigate.LatencyOptions{
			MaxPairs: s.opts.LatencyMaxPairs,
			Workers:  s.opts.Workers,
		})
		sp.SetItems(int64(len(s.lat)))
		sp.End()
	}
	return s.lat
}

// TargetConduits returns the most heavily shared conduits — the §5
// optimization target set (the paper's 12 conduits shared by more
// than 17 of 20 ISPs).
func (s *Study) TargetConduits() []fiber.ConduitID { return s.mx.TopShared(12) }

// Robustness runs (once) the §5.1 robustness-suggestion framework
// over the target conduits.
func (s *Study) Robustness() []mitigate.ISPRobustness {
	if s.rob == nil {
		_, sp := obs.Trace(context.Background(), "study.robustness")
		s.rob = mitigate.RobustnessSuggestion(s.res.Map, s.mx, s.TargetConduits(), 3)
		sp.SetItems(int64(len(s.rob)))
		sp.End()
	}
	return s.rob
}

// Additions runs (once) the §5.2 k-new-conduits sweep.
func (s *Study) Additions() *mitigate.AddResult {
	if s.add == nil {
		_, sp := obs.Trace(context.Background(), "study.additions")
		sp.SetWorkers(par.Workers(s.opts.Workers))
		s.add = mitigate.AddConduits(s.res.Map, s.mx, mitigate.AddOptions{
			K:       s.opts.AddConduits,
			Workers: s.opts.Workers,
		})
		sp.SetItems(int64(len(s.add.Additions)))
		sp.End()
	}
	return s.add
}

// Colocation computes (once) the §3 co-location analysis of every
// tenanted conduit against the road, rail, and pipeline layers.
func (s *Study) Colocation() []geo.Colocation {
	if s.colo == nil {
		_, sp := obs.Trace(context.Background(), "study.colocation")
		sp.SetWorkers(par.Workers(s.opts.Workers))
		an := geo.NewOverlapAnalyzer(map[string][]geo.Polyline{
			"road": s.res.Atlas.RoadPolylines(),
			"rail": s.res.Atlas.RailPolylines(),
		}, geo.OverlapOptions{BufferKm: s.opts.ColocationBufferKm})
		var paths []geo.Polyline
		for i := range s.res.Map.Conduits {
			c := &s.res.Map.Conduits[i]
			if len(c.Tenants) == 0 {
				continue
			}
			paths = append(paths, c.Path)
		}
		s.colo = an.AnalyzeAll(paths, s.opts.Workers)
		sp.SetItems(int64(len(s.colo)))
		sp.End()
	}
	return s.colo
}

// BuildReport renders the per-stage build report: wall time, share of
// the total, items processed, and throughput for every stage recorded
// so far (see internal/obs). Stages appear once they have run — lazy
// stages that were never requested are absent.
func (s *Study) BuildReport() string { return obs.Report() }

// ---- Rendered artifacts, one per paper table/figure. ----

// RenderTable1 reproduces Table 1: nodes and links per step-1 ISP.
func (s *Study) RenderTable1() string {
	t := report.Table{
		Title:   "Table 1: nodes and long-haul links per ISP in the initial (geocoded) map",
		Headers: []string{"ISP", "Nodes", "Links"},
	}
	for _, c := range s.res.Report.PerISP {
		if c.Geocoded {
			t.AddRow(c.Name, c.Nodes, c.Links)
		}
	}
	return t.String()
}

// RenderStep3 reports the §2.3 POP-only additions.
func (s *Study) RenderStep3() string {
	t := report.Table{
		Title:   "Step 3: ISPs added from POP-only maps, aligned along rights-of-way",
		Headers: []string{"ISP", "Nodes", "Links"},
	}
	for _, c := range s.res.Report.PerISP {
		if !c.Geocoded {
			t.AddRow(c.Name, c.Nodes, c.Links)
		}
	}
	return t.String()
}

// RenderFigure1 summarizes the final map (the paper's headline:
// 273 nodes, 2411 links, 542 conduits).
func (s *Study) RenderFigure1() string {
	st := s.res.Map.Stats()
	r := s.res.Report
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: the constructed US long-haul fiber map\n")
	fmt.Fprintf(&b, "  nodes:    %d\n  links:    %d\n  conduits: %d\n  ISPs:     %d\n",
		st.Nodes, st.Links, st.Conduits, st.ISPs)
	fmt.Fprintf(&b, "  total conduit length: %.0f km (avg %.0f km)\n",
		st.TotalKm, st.TotalKm/float64(st.Conduits))
	fmt.Fprintf(&b, "  sharing: %.2f%% of conduits shared by >=2 ISPs, %.2f%% by >=3, %.2f%% by >=4\n",
		pct(st.SharedByGE2, st.Conduits), pct(st.SharedByGE3, st.Conduits), pct(st.SharedByGE4, st.Conduits))
	fmt.Fprintf(&b, "  %d conduits shared by more than 17 ISPs (max sharing %d of %d)\n",
		st.SharedByGT17, st.MaxSharing, st.ISPs)
	fmt.Fprintf(&b, "  build: step 2 validated %d of %d geocoded links from public records;\n",
		r.Step2Validated, r.Step2Checked)
	fmt.Fprintf(&b, "         step 4 aligned %d logical links onto %d conduits (%.1f%% match ground truth)\n",
		r.Step4Routes, r.Step4Edges, 100*r.AlignmentAccuracy())
	return b.String()
}

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// RenderFigure4 reproduces the §3 co-location histogram: the fraction
// of each conduit's route co-located with roads, rails, or either.
func (s *Study) RenderFigure4() string {
	return renderFigure4(s.Colocation())
}

// renderFigure4 renders the co-location histogram for a computed
// analysis. An empty analysis renders an empty table instead of
// dividing by zero.
func renderFigure4(colo []geo.Colocation) string {
	bins := 5
	roadH := make([]int, bins+1)
	railH := make([]int, bins+1)
	eitherH := make([]int, bins+1)
	binOf := func(f float64) int {
		b := int(f * float64(bins))
		if b > bins {
			b = bins
		}
		if b == bins && f < 1 {
			b = bins - 1
		}
		return b
	}
	for _, c := range colo {
		roadH[binOf(c.Fractions["road"])]++
		railH[binOf(c.Fractions["rail"])]++
		eitherH[binOf(c.Any)]++
	}
	t := report.Table{
		Title:   "Figure 4: fraction of conduit routes co-located with transportation ROWs",
		Headers: []string{"co-located fraction", "rail", "road", "rail or road"},
	}
	n := float64(len(colo))
	if n == 0 {
		// No analyzed conduits: an empty table, not a NaN histogram.
		return t.String() + "no co-location data (no tenanted conduits analyzed)\n"
	}
	for b := 0; b <= bins; b++ {
		lo := float64(b) / float64(bins)
		label := fmt.Sprintf("%.1f-%.1f", lo, lo+1.0/float64(bins))
		if b == bins {
			label = "exactly 1.0"
		}
		t.AddRow(label, float64(railH[b])/n, float64(roadH[b])/n, float64(eitherH[b])/n)
	}
	var road, rail, either float64
	for _, c := range colo {
		road += c.Fractions["road"]
		rail += c.Fractions["rail"]
		either += c.Any
	}
	return t.String() + fmt.Sprintf(
		"mean co-location: road %.2f, rail %.2f, either %.2f (road > rail, as in the paper)\n",
		road/n, rail/n, either/n)
}

// RenderFigure6 reproduces Figure 6: conduits shared by at least k
// ISPs.
func (s *Study) RenderFigure6() string {
	counts := s.mx.SharingCounts()
	bars := make([]report.Bar, len(counts))
	for i, c := range counts {
		bars[i] = report.Bar{Label: fmt.Sprintf("k=%2d", i+1), Value: float64(c)}
	}
	return report.BarChart("Figure 6: number of conduits shared by at least k ISPs", bars, 50)
}

// RenderFigure7 reproduces Figure 7: ISPs ranked by the average
// number of ISPs sharing the conduits they use.
func (s *Study) RenderFigure7() string {
	t := report.Table{
		Title:   "Figure 7: average conduit sharing per ISP (ascending; paper: Suddenlink least, DT/NTT/XO most)",
		Headers: []string{"ISP", "conduits", "avg sharing", "stderr", "p25", "p75", "shared conduits"},
	}
	for _, r := range s.mx.Ranking() {
		t.AddRow(r.ISP, r.Conduits, r.Mean, r.StdErr, r.P25, r.P75, r.SharedConduits)
	}
	return t.String()
}

// RenderFigure8 reproduces Figure 8: the Hamming-distance heat map of
// ISP risk profiles.
func (s *Study) RenderFigure8() string {
	return report.Heatmap("Figure 8: risk-profile similarity (Hamming distance)", s.mx.ISPs, s.mx.Hamming())
}

// RenderFigure9 reproduces Figure 9: the sharing CDF before and after
// the traceroute overlay.
func (s *Study) RenderFigure9() string {
	pub, over := s.Campaign().SharingWithTraffic()
	toF := func(xs []int) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = float64(x)
		}
		sort.Float64s(out)
		return out
	}
	return report.CDFTable(
		"Figure 9: ISPs sharing a conduit — published map vs traceroute overlay",
		[]report.CDFSeries{
			{Name: "physical map only", Values: toF(pub)},
			{Name: "traceroute overlaid", Values: toF(over)},
		}, nil)
}

// RenderTable2 reproduces Table 2 (top west-origin east-bound
// conduits); RenderTable3 the east-origin west-bound equivalent.
func (s *Study) RenderTable2() string { return s.renderTopConduits(true, "Table 2") }

// RenderTable3 reproduces Table 3.
func (s *Study) RenderTable3() string { return s.renderTopConduits(false, "Table 3") }

func (s *Study) renderTopConduits(westEast bool, name string) string {
	dir := "west-origin east-bound"
	if !westEast {
		dir = "east-origin west-bound"
	}
	t := report.Table{
		Title:   fmt.Sprintf("%s: top 20 conduits by %s traceroute probes", name, dir),
		Headers: []string{"Location", "Location", "# Probes"},
	}
	for _, r := range s.Campaign().TopConduits(20, westEast) {
		t.AddRow(r.A, r.B, r.Probes)
	}
	return t.String()
}

// RenderTable4 reproduces Table 4: top ISPs by conduits carrying
// probe traffic.
func (s *Study) RenderTable4() string {
	t := report.Table{
		Title:   "Table 4: top 10 ISPs by number of conduits carrying probe traffic",
		Headers: []string{"ISP", "# conduits", "# probes"},
	}
	for _, r := range s.Campaign().TopISPs(10) {
		t.AddRow(r.ISP, r.Conduits, r.Probes)
	}
	return t.String()
}

// RenderFigure10 reproduces Figure 10: path inflation and shared-risk
// reduction from re-routing the target conduits.
func (s *Study) RenderFigure10() string {
	t := report.Table{
		Title:   "Figure 10: path inflation (hops) and shared-risk reduction per ISP over the most-shared conduits",
		Headers: []string{"ISP", "targets", "PI min", "PI avg", "PI max", "SRR min", "SRR avg", "SRR max"},
	}
	for _, r := range s.Robustness() {
		t.AddRow(r.ISP, r.Evaluated, r.PI.Min, r.PI.Avg, r.PI.Max, r.SRR.Min, r.SRR.Avg, r.SRR.Max)
	}
	return t.String()
}

// RenderTable5 reproduces Table 5: suggested peerings.
func (s *Study) RenderTable5() string {
	t := report.Table{
		Title:   "Table 5: top 3 peerings suggested by the robustness framework",
		Headers: []string{"ISP", "Suggested Peering"},
	}
	for _, r := range s.Robustness() {
		t.AddRow(r.ISP, strings.Join(r.SuggestedPeers, " | "))
	}
	return t.String()
}

// RenderFigure11 reproduces Figure 11: improvement ratio versus
// number of added conduits per ISP.
func (s *Study) RenderFigure11() string {
	add := s.Additions()
	t := report.Table{
		Title:   "Figure 11: shared-risk improvement ratio vs number of conduits added",
		Headers: []string{"ISP"},
	}
	for k := 1; k <= len(add.Additions); k++ {
		t.Headers = append(t.Headers, fmt.Sprintf("k=%d", k))
	}
	isps := make([]string, 0, len(add.Improvement))
	for isp := range add.Improvement {
		isps = append(isps, isp)
	}
	sort.Slice(isps, func(i, j int) bool {
		si, sj := add.Improvement[isps[i]], add.Improvement[isps[j]]
		if si[len(si)-1] != sj[len(sj)-1] {
			return si[len(si)-1] > sj[len(sj)-1]
		}
		return isps[i] < isps[j] // tie-break: render must be deterministic
	})
	for _, isp := range isps {
		row := []any{isp}
		for _, v := range add.Improvement[isp] {
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("chosen additions:\n")
	for i, ad := range add.Additions {
		fmt.Fprintf(&b, "  %2d. %s - %s (%.0f km, benefit %.2f)\n", i+1,
			s.res.Map.Node(ad.A).Key(), s.res.Map.Node(ad.B).Key(), ad.LengthKm, ad.Benefit)
	}
	return b.String()
}

// RenderFigure12 reproduces Figure 12: the latency CDFs.
func (s *Study) RenderFigure12() string {
	study := s.Latency()
	series := []report.CDFSeries{
		{Name: "best paths", Values: mitigate.CDF(study, func(p mitigate.PairLatency) float64 { return p.BestMs })},
		{Name: "LOS", Values: mitigate.CDF(study, func(p mitigate.PairLatency) float64 { return p.LosMs })},
		{Name: "avg of existing", Values: mitigate.CDF(study, func(p mitigate.PairLatency) float64 { return p.AvgMs })},
		{Name: "ROW", Values: mitigate.CDF(study, func(p mitigate.PairLatency) float64 { return p.RowMs })},
	}
	sum := mitigate.Summarize(study)
	out := report.CDFTable("Figure 12: one-way propagation delay (ms) across city pairs", series, nil) +
		fmt.Sprintf("pairs: %d; best==ROW for %.0f%% of pairs (paper: ~65%%); LOS gap p50 %.2f ms, p75 %.2f ms\n",
			sum.Pairs, 100*sum.BestEqualsROW, sum.LosGapP50, sum.LosGapP75)
	// The constructive half of §5.3: the best ROW-following builds.
	imps := s.LatencyImprovements(5)
	if len(imps) > 0 {
		out += "best new ROW-following builds (delay saved per km of new fiber):\n"
		for _, imp := range imps {
			out += fmt.Sprintf("  %s - %s: %.2f -> %.2f ms (saves %.2f ms, %.0f km new fiber)\n",
				s.res.Map.Node(imp.A).Key(), s.res.Map.Node(imp.B).Key(),
				imp.BestMs, imp.RowMs, imp.SavedMs, imp.NewFiberKm)
		}
	}
	return out
}

// LatencyImprovements proposes the top-k ROW-following builds that
// close the gap between deployed fiber delay and the right-of-way
// bound (§5.3's constructive conclusion).
func (s *Study) LatencyImprovements(k int) []mitigate.LatencyImprovement {
	return mitigate.LatencyImprovements(s.res.Map, s.res.Atlas, s.Latency(), k,
		mitigate.LatencyOptions{Workers: s.opts.Workers})
}

// ExportGeoJSON writes the map and the road/rail/pipeline layers as
// GeoJSON files into dir (Figures 1-3 as data).
func (s *Study) ExportGeoJSON(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mapJSON, err := s.res.Map.GeoJSON()
	if err != nil {
		return err
	}
	files := map[string][]byte{"fibermap.geojson": mapJSON}
	for name, lines := range map[string][]geo.Polyline{
		"roads.geojson":     s.res.Atlas.RoadPolylines(),
		"rails.geojson":     s.res.Atlas.RailPolylines(),
		"pipelines.geojson": s.res.Atlas.PipelinePolylines(),
	} {
		raw, err := fiber.LayerGeoJSON(strings.TrimSuffix(name, ".geojson"), lines)
		if err != nil {
			return err
		}
		files[name] = raw
	}
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ExportDataset writes the full map in the line-oriented dataset
// format (fiber.WriteMap) — the analogue of the paper's PREDICT data
// release. The file round-trips through fiber.ReadMap.
func (s *Study) ExportDataset(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fiber.WriteMap(f, s.res.Map); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RenderAll renders every table and figure in paper order.
func (s *Study) RenderAll() string {
	parts := []string{
		s.RenderTable1(), s.RenderStep3(), s.RenderFigure1(), s.RenderFigure4(),
		s.RenderFigure6(), s.RenderFigure7(), s.RenderFigure8(), s.RenderFigure9(),
		s.RenderTable2(), s.RenderTable3(), s.RenderTable4(),
		s.RenderFigure10(), s.RenderTable5(), s.RenderFigure11(), s.RenderFigure12(),
	}
	return strings.Join(parts, "\n")
}
