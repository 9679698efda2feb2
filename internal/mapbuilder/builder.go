// Package mapbuilder implements §2 of the paper: the four-step
// construction of the US long-haul fiber map.
//
//	Step 1 — seed the map with the providers whose published fiber
//	         maps carry explicit geocoding.
//	Step 2 — validate those link locations against the public-records
//	         corpus and establish conduit sharing.
//	Step 3 — add providers that publish only POP-level maps by
//	         aligning each logical link along the closest known
//	         rights-of-way.
//	Step 4 — validate the tentative alignments with public records,
//	         choosing among candidate ROWs by documentary evidence.
//
// Because the substrate is synthetic, the builder also retains the
// ground truth, so the fidelity of steps 2-4 (which the paper could
// only argue for qualitatively) is measured and reported.
package mapbuilder

import (
	"context"
	"fmt"
	"sort"

	"intertubes/internal/atlas"
	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/obs"
	"intertubes/internal/records"
)

// Options configures a build.
type Options struct {
	// Seed drives every random choice in the build. Builds with equal
	// options are bit-identical.
	Seed int64
	// Records tunes the synthetic public-records corpus.
	Records records.Options
	// AlignCandidates is how many candidate ROW paths step 3 considers
	// per logical link (default 3).
	AlignCandidates int
	// ValidateTopK is how many search hits steps 2 and 4 examine per
	// validation query (default 8).
	ValidateTopK int
	// DisableOccupancyDiscount turns off the shared-trench economics
	// (every provider prices corridors as greenfield). Exists for the
	// ablation benchmarks: without the discount the sharing
	// distribution of Figure 6 loses its heavy tail.
	DisableOccupancyDiscount bool
}

func (o Options) withDefaults() Options {
	if o.AlignCandidates == 0 {
		o.AlignCandidates = 3
	}
	if o.ValidateTopK == 0 {
		o.ValidateTopK = 8
	}
	if o.Records.Seed == 0 {
		o.Records.Seed = o.Seed + 1
	}
	return o
}

// ISPCounts reproduces one row of the paper's Table 1 for the built
// map.
type ISPCounts struct {
	Name     string
	Nodes    int
	Links    int
	Geocoded bool
}

// Report carries build statistics and ground-truth fidelity measures.
type Report struct {
	PerISP []ISPCounts
	// Step 1 totals (geocoded providers only).
	Step1Nodes, Step1Links, Step1Conduits int
	// Step 2: how many step-1 links had documentary evidence.
	Step2Validated, Step2Checked int
	// Step 3/4: logical-link alignment.
	Step4Routes       int // logical links aligned
	Step4Edges        int // conduit placements chosen
	Step4EdgesCorrect int // placements matching ground truth
	Step4Validated    int // placements with documentary evidence
	// Hidden tenancies recorded for the traceroute overlay.
	HiddenTenancies int
}

// AlignmentAccuracy returns the fraction of step-3/4 conduit
// placements that match ground truth.
func (r Report) AlignmentAccuracy() float64 {
	if r.Step4Edges == 0 {
		return 1
	}
	return float64(r.Step4EdgesCorrect) / float64(r.Step4Edges)
}

// Result is a completed build.
type Result struct {
	Map    *fiber.Map
	Atlas  *atlas.Atlas
	Graph  *graph.Graph // corridor graph (edge ids = corridor indices)
	Corpus *records.Corpus
	Index  *records.Index
	// Truth maps provider name to its ground-truth footprint,
	// including unmapped providers.
	Truth  map[string]Footprint
	Report Report
}

// edgeRef returns the records reference for a corridor edge.
func edgeRef(a *atlas.Atlas, eid int) records.ConduitRef {
	c := &a.Corridors[eid]
	return records.NewConduitRef(a.Cities[c.A].Key(), a.Cities[c.B].Key())
}

// Build runs the four-step pipeline over the default provider
// universe.
func Build(opts Options) *Result {
	return BuildCtx(context.Background(), opts)
}

// BuildCtx is Build with the build's stage spans (footprints, records
// index, step-2 validation, step-3/4 alignment) opened under the span
// in ctx.
func BuildCtx(ctx context.Context, opts Options) *Result {
	return construct(ctx, opts, Profiles())
}

// BuildWithProfiles runs the pipeline over a caller-supplied provider
// universe (used by tests and ablations).
func BuildWithProfiles(opts Options, profiles []Profile) *Result {
	return construct(context.Background(), opts, profiles)
}

// validation memoizes Inference.Validate for one build. Validation is
// a pure function of (conduit, ISP) at the build's fixed top-k, and
// step 4 re-asks many of the questions steps 2 and 4 already asked.
type validation struct {
	inf      *records.Inference
	topK     int
	memo     map[validationKey]bool
	searches int64 // Validate calls actually run
	hits     int64 // answers served from memo
}

type validationKey struct {
	ref records.ConduitRef
	isp string
}

func (v *validation) ok(ref records.ConduitRef, isp string) bool {
	k := validationKey{ref, isp}
	if ok, seen := v.memo[k]; seen {
		v.hits++
		return ok
	}
	v.searches++
	_, ok := v.inf.Validate(ref, isp, v.topK)
	v.memo[k] = ok
	return ok
}

// span opens a stage span whose items are the searches the stage runs.
// The answers the memo served instead go to the span's memo_hits
// attribute and to the mapbuild_memo_hits_total counter.
func (v *validation) span(ctx context.Context, name string) (end func()) {
	_, sp := obs.Trace(ctx, name)
	searches, hits := v.searches, v.hits
	return func() {
		sp.SetItems(v.searches - searches)
		sp.SetAttrInt("memo_hits", v.hits-hits)
		obs.GetCounter("mapbuild_memo_hits_total",
			"Map-build validations answered by the per-build memo instead of a records search.",
			obs.L("stage", name)).Add(v.hits - hits)
		sp.End()
	}
}

func construct(ctx context.Context, opts Options, profiles []Profile) *Result {
	opts = opts.withDefaults()
	a := atlas.Load()
	g := a.Graph()

	res := &Result{
		Map:   fiber.NewMap(),
		Atlas: a,
		Graph: g,
		Truth: make(map[string]Footprint, len(profiles)),
	}

	// Ground truth for every provider, mapped or not. Providers build
	// in order of decreasing footprint size — the large incumbents dug
	// the original trenches, and everyone after them gets the
	// occupancy discount for joining an existing conduit.
	order := make([]int, len(profiles))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return profiles[order[x]].POPTarget > profiles[order[y]].POPTarget
	})
	_, fpSpan := obs.Trace(ctx, "mapbuild.footprints")
	occupancy := make([]int, g.NumEdges())
	for _, pi := range order {
		p := profiles[pi]
		occ := occupancy
		if opts.DisableOccupancyDiscount {
			occ = nil
		}
		fp := GenerateFootprint(a, g, p, opts.Seed, occ)
		res.Truth[p.Name] = fp
		for eid := range fp.Edges {
			occupancy[eid]++
		}
	}
	fpSpan.SetItems(int64(len(profiles)))
	fpSpan.End()

	// The public-records corpus describes the true tenancy relation.
	truth := records.GroundTruth{Tenants: make(map[records.ConduitRef][]string)}
	edgeTenants := make(map[int][]string)
	for _, p := range profiles {
		for eid := range res.Truth[p.Name].Edges {
			edgeTenants[eid] = append(edgeTenants[eid], p.Name)
		}
	}
	for eid, tenants := range edgeTenants {
		// Parallel corridors between the same city pair share one
		// records reference: merge their tenant sets.
		ref := edgeRef(a, eid)
		merged := append(truth.Tenants[ref], tenants...)
		sort.Strings(merged)
		merged = dedupSorted(merged)
		truth.Tenants[ref] = merged
	}
	allNames := make([]string, 0, len(profiles))
	for _, p := range profiles {
		allNames = append(allNames, p.Name)
	}
	_, idxSpan := obs.Trace(ctx, "mapbuild.records_index")
	res.Corpus = records.Generate(truth, allNames, opts.Records)
	res.Index = records.BuildIndex(res.Corpus)
	idxSpan.SetItems(int64(len(res.Corpus.Docs)))
	idxSpan.End()
	val := &validation{
		inf:  records.NewInference(res.Index),
		topK: opts.ValidateTopK,
		memo: make(map[validationKey]bool),
	}

	ensure := func(eid int) fiber.ConduitID {
		c := &a.Corridors[eid]
		ca, cb := a.Cities[c.A], a.Cities[c.B]
		na := res.Map.AddNode(ca.Name, ca.State, ca.Loc, ca.Population, c.A)
		nb := res.Map.AddNode(cb.Name, cb.State, cb.Loc, cb.Population, c.B)
		// The conduit is trenched alongside the corridor's primary
		// right-of-way, not on its centerline.
		return res.Map.EnsureConduit(na, nb, eid, c.Geometry.PerpendicularOffset(1.5))
	}

	// ---- Step 1: geocoded provider maps. Edge iteration is sorted
	// so conduit ids (and the whole build) are reproducible.
	for _, p := range profiles {
		if !p.Mapped() || !p.Geocoded {
			continue
		}
		for _, eid := range sortedEdges(res.Truth[p.Name].Edges) {
			res.Map.AddTenant(ensure(eid), p.Name)
		}
	}
	s := res.Map.Stats()
	res.Report.Step1Nodes, res.Report.Step1Links, res.Report.Step1Conduits = s.Nodes, s.Links, s.Conduits

	// ---- Step 2: validate step-1 link locations against records.
	endStep2 := val.span(ctx, "mapbuild.step2_validate")
	for _, p := range profiles {
		if !p.Mapped() || !p.Geocoded {
			continue
		}
		for _, eid := range sortedEdges(res.Truth[p.Name].Edges) {
			res.Report.Step2Checked++
			if val.ok(edgeRef(a, eid), p.Name) {
				res.Report.Step2Validated++
			}
		}
	}
	endStep2()

	// ---- Steps 3 and 4: align POP-only providers along ROWs and
	// validate the placements.
	plain := func(eid int) float64 {
		c := &a.Corridors[eid]
		return c.LengthKm * rowFactor(c.ROW)
	}
	endStep34 := val.span(ctx, "mapbuild.step34_align")
	alignWS := graph.NewWorkspace() // serial alignment loop: one workspace
	for _, p := range profiles {
		if !p.Mapped() || p.Geocoded {
			continue
		}
		fp := res.Truth[p.Name]
		chosen := make(map[int]bool)
		for _, route := range fp.Routes {
			cands := g.KShortestPathsWS(alignWS, route[0], route[1], opts.AlignCandidates, plain)
			if len(cands) == 0 {
				continue
			}
			res.Report.Step4Routes++
			best, bestScore := 0, -1.0
			for i, cand := range cands {
				validated := 0
				for _, eid := range cand.Edges {
					if val.ok(edgeRef(a, eid), p.Name) {
						validated++
					}
				}
				score := float64(validated) / float64(len(cand.Edges))
				// Prefer documentary evidence; break ties toward the
				// shorter path (earlier candidate).
				if score > bestScore+1e-9 {
					best, bestScore = i, score
				}
			}
			for _, eid := range cands[best].Edges {
				chosen[eid] = true
			}
		}
		for _, eid := range sortedEdges(chosen) {
			res.Map.AddTenant(ensure(eid), p.Name)
			res.Report.Step4Edges++
			if fp.Edges[eid] {
				res.Report.Step4EdgesCorrect++
			}
			if val.ok(edgeRef(a, eid), p.Name) {
				res.Report.Step4Validated++
			}
		}
	}
	endStep34()

	// ---- Hidden tenancy: unmapped providers, plus mapped providers'
	// true occupations the published maps missed. These are invisible
	// to the risk matrix but discoverable by the traceroute overlay
	// (paper §4.3).
	for _, p := range profiles {
		fp := res.Truth[p.Name]
		for _, eid := range sortedEdges(fp.Edges) {
			cid, ok := conduitFor(res.Map, a, eid)
			if !ok {
				continue // conduit absent from the published map entirely
			}
			if res.Map.Conduit(cid).HasTenant(p.Name) {
				continue
			}
			if res.Map.AddHiddenTenant(cid, p.Name) {
				res.Report.HiddenTenancies++
			}
		}
	}

	// ---- Per-provider counts (Table 1 / §2.3 reporting).
	for _, p := range profiles {
		if !p.Mapped() {
			continue
		}
		links := res.Map.ConduitsOf(p.Name)
		res.Report.PerISP = append(res.Report.PerISP, ISPCounts{
			Name:     p.Name,
			Nodes:    len(res.Map.NodesOf(p.Name)),
			Links:    len(links),
			Geocoded: p.Geocoded,
		})
	}
	return res
}

// sortedEdges returns the keys of an edge set in ascending order.
func sortedEdges(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for eid := range set {
		out = append(out, eid)
	}
	sort.Ints(out)
	return out
}

// dedupSorted removes adjacent duplicates from a sorted slice.
func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// conduitFor finds the published conduit following corridor eid, if
// any.
func conduitFor(m *fiber.Map, a *atlas.Atlas, eid int) (fiber.ConduitID, bool) {
	if eid < 0 || eid >= len(a.Corridors) {
		return 0, false
	}
	c := &a.Corridors[eid]
	na, ok := m.NodeByKey(a.Cities[c.A].Key())
	if !ok {
		return 0, false
	}
	nb, ok := m.NodeByKey(a.Cities[c.B].Key())
	if !ok {
		return 0, false
	}
	for _, cid := range m.ConduitsBetween(na, nb) {
		if m.Conduit(cid).Corridor == eid {
			return cid, true
		}
	}
	return 0, false
}

// ConduitForCorridor exposes conduit lookup by corridor edge id for
// other packages (traceroute overlay, mitigation).
func (r *Result) ConduitForCorridor(eid int) (fiber.ConduitID, bool) {
	return conduitFor(r.Map, r.Atlas, eid)
}

// String renders a one-line summary.
func (r *Result) String() string {
	s := r.Map.Stats()
	return fmt.Sprintf("map: %d nodes, %d links, %d conduits, %d ISPs",
		s.Nodes, s.Links, s.Conduits, s.ISPs)
}
