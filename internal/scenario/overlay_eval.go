package scenario

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/obs"
	"intertubes/internal/resilience"
	"intertubes/internal/risk"
)

// overlay_eval.go is the copy-on-write evaluation path. Instead of
// deep-cloning the map per scenario, it records the perturbation as a
// fiber.Overlay over the shared snapshot and recomputes only what the
// delta touches:
//
//   - stats, sharing, and ranking read straight through the overlay
//     views (no map copy);
//   - disconnection and partition cost are recomputed only for the
//     providers the delta can affect — a provider is "touched" when a
//     cut conduit carries its (surviving) tenancy or an addition
//     lights it; every other provider reuses its baseline row, which
//     is exactly what a full recomputation would produce for it;
//   - touched partition costs run through the sparse Stoer-Wagner
//     kernel with the snapshot's per-provider unit weight table,
//     masked in place in a pooled scratch buffer (additions lower
//     masks to 1, cuts raise them to +Inf, overlay-new conduits ride
//     as extra edges);
//   - the heavyweight optional stages (latency, traffic) materialize
//     a concrete map only when the scenario requests them.
//
// The output contract is strict: bit-identical Results to a
// clone-per-scenario evaluation that deep-copies the map and re-runs
// every analysis (referenceEvaluate in reference_test.go), enforced by
// the differential suite in overlay_equiv_test.go.

// touchedCut/touchedAdd classify why a provider needs recomputation.
const (
	touchedCut = 1 << iota
	touchedAdd
)

// evalScratch is the reusable per-evaluation workspace: the graph
// kernel scratch, the union-find scratch, and the masked weight /
// vertex / extra-edge buffers. Pooled so concurrent sweeps reuse a
// few of them instead of reallocating per scenario.
type evalScratch struct {
	ws    *graph.Workspace
	imp   resilience.ImpactScratch
	w     []float64
	verts []int
	extra []graph.Edge
	// capW is the capacity stage's per-conduit capacity table
	// (base conduits first, overlay virtuals after).
	capW []float64
}

var scratchPool = sync.Pool{
	New: func() any { return &evalScratch{ws: graph.NewWorkspace()} },
}

func getScratch(nEdges int) *evalScratch {
	s := scratchPool.Get().(*evalScratch)
	if len(s.w) < nEdges {
		s.w = make([]float64, nEdges)
	}
	return s
}

// maskWeights fills dst with the provider's unit weight row under the
// perturbation: merged-addition tenancy gains first, then cuts to
// +Inf — the same order the mutation path applies them, so a cut
// merged-addition conduit stays dark. Allocation-free.
func maskWeights(dst, baseRow []float64, gains []fiber.ConduitID, cuts []fiber.ConduitID) {
	copy(dst, baseRow)
	for _, cid := range gains {
		dst[cid] = 1
	}
	inf := math.Inf(1)
	for _, cid := range cuts {
		dst[cid] = inf
	}
}

// perturbation is a scenario resolved against one snapshot: its
// cuts, removals and node-resolved additions, the providers that
// survive its removal clause, and the copy-on-write overlay recording
// the whole delta. The evaluation's apply stage, LatencyAtlasFor and
// ResolveCuts all start here.
type perturbation struct {
	fiber.Perturbation
	kept []string
	ov   *fiber.Overlay
}

// perturb resolves sc (preset expanded, fields validated) and records
// it as an overlay over the snapshot's map. An addition with an empty
// tenant list is open access: every kept provider lights it.
func (s *snapshot) perturb(sc Scenario) (*perturbation, error) {
	sc, err := Resolve(sc)
	if err != nil {
		return nil, err
	}
	cuts, err := resolveCutsOn(s, sc)
	if err != nil {
		return nil, err
	}
	m := s.res.Map
	p := &perturbation{
		Perturbation: fiber.Perturbation{Cuts: cuts, RemoveISPs: sc.RemoveISPs},
		kept:         keptISPs(s, sc),
	}
	for _, ad := range sc.Additions {
		a, ok := m.NodeByKey(ad.A)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown node %q in addition", ad.A)
		}
		b, ok := m.NodeByKey(ad.B)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown node %q in addition", ad.B)
		}
		tenants := ad.Tenants
		if len(tenants) == 0 {
			tenants = p.kept
		}
		p.Additions = append(p.Additions, fiber.OverlayAddition{A: a, B: b, Tenants: tenants})
	}
	if p.ov, err = fiber.NewOverlay(m, p.Perturbation); err != nil {
		return nil, err
	}
	return p, nil
}

func (e *Engine) evaluateOverlay(ctx context.Context, snap *snapshot, sc Scenario) (*Result, error) {
	checkpoint := func() error { return ctx.Err() }
	if err := checkpoint(); err != nil {
		return nil, err
	}

	m := snap.res.Map
	base := snap.baseline()

	// Stage spans carry the attribution story of the overlay path —
	// which stages ran against the delta, which reused baseline rows,
	// and for how many touched providers. stage() brackets one section;
	// attrs are no-ops unless the evaluation is being recorded.
	stage := func(name string, fn func(sp *obs.Span) error) error {
		_, sp := obs.Trace(ctx, name)
		defer sp.End()
		return fn(sp)
	}

	var (
		res *Result
		p   *perturbation
	)
	err := stage("scenario.stage.apply", func(sp *obs.Span) error {
		var err error
		if p, err = snap.perturb(sc); err != nil {
			return err
		}
		res = &Result{
			Hash:          sc.Hash(),
			Scenario:      sc,
			Cut:           p.Cuts,
			ConduitsCut:   len(p.Cuts),
			ISPsRemoved:   sc.RemoveISPs,
			LinksRemoved:  p.ov.LinksRemoved(),
			ConduitsAdded: len(p.Additions),
		}
		for _, cid := range p.Cuts {
			res.TenanciesCut += len(m.Conduit(cid).Tenants)
		}
		sp.SetAttrInt("cuts", int64(len(p.Cuts)))
		sp.SetAttrInt("additions", int64(len(p.Additions)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	cuts, kept, ov := p.Cuts, p.kept, p.ov

	if err := checkpoint(); err != nil {
		return nil, err
	}

	plus, final := ov.Plus(), ov.Final()
	var mx2 *risk.Matrix
	_ = stage("scenario.stage.matrix", func(sp *obs.Span) error {
		mx2 = risk.BuildFrom(final, kept)
		res.Stats = StatsDelta{Before: base.stats, After: final.Stats()}
		fillSharing(res, base, mx2)
		fillRanking(res, base, mx2)
		sp.SetAttrInt("isps", int64(len(mx2.ISPs)))
		return nil
	})

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Touched set: a surviving provider's connectivity or partition
	// answer can only change if a cut conduit carries its tenancy or an
	// addition lights it. Everything else reuses its baseline row —
	// a full recomputation would produce the identical value.
	removed := make(map[string]bool, len(sc.RemoveISPs))
	for _, isp := range sc.RemoveISPs {
		removed[isp] = true
	}
	touched := make(map[string]uint8)
	for _, cid := range cuts {
		for _, isp := range m.Tenants(cid) {
			if !removed[isp] {
				touched[isp] |= touchedCut
			}
		}
	}
	for _, ad := range p.Additions {
		for _, isp := range ad.Tenants {
			if !removed[isp] {
				touched[isp] |= touchedAdd
			}
		}
	}

	scr := getScratch(snap.g.NumEdges())
	defer scratchPool.Put(scr)
	cutMask := ov.CutMask()

	// Per-ISP disconnection on the plus view (cuts excluded by weight,
	// footprints intact), in matrix order then stable-sorted by damage
	// — CutImpact's exact ordering.
	_ = stage("scenario.stage.disconnection", func(sp *obs.Span) error {
		recomputed := 0
		impacts := make([]resilience.Impact, 0, len(mx2.ISPs))
		for _, isp := range mx2.ISPs {
			bits := touched[isp]
			if bits == 0 {
				impacts = append(impacts, base.disc[isp])
				continue
			}
			recomputed++
			nodes := snap.ispNodes[snap.ispIdx[isp]]
			if bits&touchedAdd != 0 {
				nodes = plus.NodesOf(isp)
			}
			impacts = append(impacts, scr.imp.ImpactOn(plus, isp, nodes, cuts, cutMask))
		}
		sort.SliceStable(impacts, func(i, j int) bool {
			return impacts[i].DisconnectedPairs > impacts[j].DisconnectedPairs
		})
		fillDisconnection(res, base, impacts)
		setReuseAttrs(sp, recomputed, len(mx2.ISPs)-recomputed)
		return nil
	})

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Partition cost on the final view. Touched providers run the
	// sparse Stoer-Wagner kernel over the masked snapshot weight row;
	// the rest reuse the baseline cost.
	_ = stage("scenario.stage.partition", func(sp *obs.Span) error {
		fast0, full0 := scr.ws.MinCutStats()
		recomputed := 0
		type pcost struct {
			isp string
			min int
		}
		pcs := make([]pcost, 0, len(kept))
		nb := ov.NumBaseConduits()
		nc := final.NumConduits()
		for _, isp := range kept {
			bits := touched[isp]
			if bits == 0 {
				pcs = append(pcs, pcost{isp: isp, min: base.part[isp]})
				continue
			}
			recomputed++
			// Tenancy gains this provider received on merged (base-conduit)
			// additions; overlay-new conduits become extra edges instead.
			scr.verts = scr.verts[:0]
			scr.extra = scr.extra[:0]
			gains := gainsFor(p.Additions, ov.AdditionTargets(), nb, isp)
			maskWeights(scr.w, snap.ispW[snap.ispIdx[isp]], gains, cuts)
			for cid := fiber.ConduitID(nb); int(cid) < nc; cid++ {
				if final.HasTenant(cid, isp) {
					a, b := final.ConduitEnds(cid)
					scr.extra = append(scr.extra, graph.Edge{U: int(a), V: int(b), Weight: 1})
				}
			}
			for _, n := range final.NodesOf(isp) {
				scr.verts = append(scr.verts, int(n))
			}
			min := resilience.PartitionCostWS(snap.g, scr.ws, scr.verts, scr.w, scr.extra)
			pcs = append(pcs, pcost{isp: isp, min: min})
		}
		sort.SliceStable(pcs, func(i, j int) bool { return pcs[i].min < pcs[j].min })
		for _, pc := range pcs {
			res.Partition = append(res.Partition, PartitionShift{
				ISP:    pc.isp,
				Before: base.part[pc.isp],
				After:  pc.min,
			})
		}
		setReuseAttrs(sp, recomputed, len(kept)-recomputed)
		fast, full := scr.ws.MinCutStats()
		sp.SetAttrInt("mincut_fastpath", int64(fast-fast0))
		sp.SetAttrInt("mincut_stoerwagner", int64(full-full0))
		return nil
	})

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Capacity stage: re-flow the gravity demand matrix over the
	// perturbed capacities. Base conduit capacities come from the
	// final view (cuts dark, removals thinned, merged additions
	// widened); overlay-new conduits ride as extra edges. A demand
	// pair reuses its memoized baseline flow when the perturbation
	// never reaches its source or sink component.
	_ = stage("scenario.stage.capacity", func(sp *obs.Span) error {
		cb := snap.capacity()
		scr.capW = capacityTable(final, scr.capW)
		scr.extra = scr.extra[:0]
		nb := ov.NumBaseConduits()
		for cid := nb; cid < len(scr.capW); cid++ {
			a, b := final.ConduitEnds(fiber.ConduitID(cid))
			scr.extra = append(scr.extra, graph.Edge{U: int(a), V: int(b), Weight: scr.capW[cid]})
		}
		reaches := snap.reaches(p)
		reusable := func(i int) bool {
			d := &cb.demands[i]
			return !reaches(d.s) && !reaches(d.t)
		}
		var recomputed, reused int
		res.LostTraffic, recomputed, reused = lostTrafficOn(cb, snap.g, scr.ws, scr.capW[:nb], scr.extra, reusable)
		setReuseAttrs(sp, recomputed, reused)
		return nil
	})

	// The optional heavyweight stages consume a concrete *Map; build
	// it once, only when asked.
	if sc.IncludeLatency || sc.IncludeTraffic {
		pm := ov.Materialize()
		if err := e.latencyStage(ctx, snap, sc, pm, res); err != nil {
			return nil, err
		}
		if err := e.trafficStage(ctx, snap, sc, pm, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setReuseAttrs records a stage's reuse attribution: how many
// providers it recomputed against the delta vs served from baseline
// rows, and the stage outcome ("reused" when the delta touched no one).
func setReuseAttrs(sp *obs.Span, recomputed, reused int) {
	outcome := "reused"
	if recomputed > 0 {
		outcome = "recomputed"
	}
	sp.SetAttr("outcome", outcome)
	sp.SetAttrInt("touched", int64(recomputed))
	sp.SetAttrInt("reused", int64(reused))
}

// gainsFor collects the merged-addition base conduits where the
// provider gains tenancy. Small inputs; allocates only when the
// provider actually gained something.
func gainsFor(adds []fiber.OverlayAddition, targets []fiber.ConduitID, numBase int, isp string) []fiber.ConduitID {
	var gains []fiber.ConduitID
	for i, ad := range adds {
		if int(targets[i]) >= numBase {
			continue
		}
		for _, t := range ad.Tenants {
			if t == isp {
				gains = append(gains, targets[i])
				break
			}
		}
	}
	return gains
}
