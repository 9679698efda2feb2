package scenario

import (
	"context"
	"fmt"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/par"
	"intertubes/internal/resilience"
	"intertubes/internal/risk"
)

// reference_test.go holds the executable specification the engine's
// copy-on-write evaluation is differentially tested against: a
// clone-per-scenario evaluation that deep-copies the map, applies the
// perturbation by mutation, and recomputes every analysis. It is
// deliberately slow and allocation-heavy; only tests and benchmarks
// run it.

// referenceEvaluate is the clone-per-scenario oracle: resolve the
// scenario, clone the map, mutate it, and re-run every analysis from
// scratch. It shares the cut resolution, the baseline memo, the
// result-filling helpers and the optional latency and traffic stages
// with the engine, and reaches the per-provider kernels only through
// resilience.CutImpact and PartitionCosts on the materialized map
// (those kernels have their own oracles in internal/resilience). What
// it checks is everything the overlay path adds: the overlay views,
// touched-provider and touched-component reuse, merged additions as
// weight masks, and overlay-new conduits as extra edges.
func referenceEvaluate(ctx context.Context, e *Engine, snap *snapshot, sc Scenario) (*Result, error) {
	sc, err := Resolve(sc)
	if err != nil {
		return nil, err
	}
	// checkpoint guards stage boundaries: the cheap stages below run a
	// few hundred microseconds each, so between-stage checks plus the
	// in-scan chunk-grant checks bound cancellation latency without a
	// determinism cost.
	checkpoint := func() error { return ctx.Err() }
	if err := checkpoint(); err != nil {
		return nil, err
	}

	m := snap.res.Map
	base := snap.baseline()

	cuts, err := resolveCutsOn(snap, sc)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Hash:        sc.Hash(),
		Scenario:    sc,
		Cut:         cuts,
		ConduitsCut: len(cuts),
		ISPsRemoved: sc.RemoveISPs,
	}
	for _, cid := range cuts {
		res.TenanciesCut += len(m.Conduit(cid).Tenants)
	}

	// pmPlus: removals and additions applied, cut conduits still lit —
	// the topology used for connectivity, where a severed node must
	// still count against its provider's pair total.
	pmPlus := m.Clone()
	for _, isp := range sc.RemoveISPs {
		res.LinksRemoved += pmPlus.RemoveISP(isp)
	}
	kept := keptISPs(snap, sc)
	for _, ad := range sc.Additions {
		if err := applyAddition(pmPlus, ad, kept); err != nil {
			return nil, err
		}
		res.ConduitsAdded++
	}

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// pm: the fully perturbed map — cuts go dark on top of pmPlus.
	pm := pmPlus.Clone()
	for _, cid := range cuts {
		pm.ClearTenants(cid)
	}

	mx2 := risk.Build(pm, kept)

	res.Stats = StatsDelta{Before: base.stats, After: pm.Stats()}
	fillSharing(res, base, mx2)
	fillRanking(res, base, mx2)

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Per-ISP disconnection: pmPlus keeps full footprints, the cut set
	// is excluded by weight inside CutImpact.
	fillDisconnection(res, base, resilience.CutImpact(pmPlus, mx2, cuts))

	// Partition cost on the fully perturbed map, most fragile first.
	for _, pc := range resilience.PartitionCosts(pm, kept) {
		res.Partition = append(res.Partition, PartitionShift{
			ISP:    pc.ISP,
			Before: base.part[pc.ISP],
			After:  pc.MinCuts,
		})
	}

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Capacity stage: the gravity demand matrix re-flowed over the
	// fully perturbed map's own graph — the executable spec the
	// overlay path's touched-component reuse is tested against.
	res.LostTraffic = lostTrafficClone(snap, pm)

	if err := e.latencyStage(ctx, snap, sc, pm, res); err != nil {
		return nil, err
	}
	if err := e.trafficStage(ctx, snap, sc, pm, res); err != nil {
		return nil, err
	}
	return res, nil
}

// applyAddition materializes one new build on the perturbed map. An
// empty tenant list means open access: every kept baseline provider
// lights the new conduit.
func applyAddition(pm *fiber.Map, ad Addition, kept []string) error {
	a, ok := pm.NodeByKey(ad.A)
	if !ok {
		return fmt.Errorf("scenario: unknown node %q in addition", ad.A)
	}
	b, ok := pm.NodeByKey(ad.B)
	if !ok {
		return fmt.Errorf("scenario: unknown node %q in addition", ad.B)
	}
	path := geo.Polyline{pm.Node(a).Loc, pm.Node(b).Loc}
	cid := pm.EnsureConduit(a, b, -1, path)
	tenants := ad.Tenants
	if len(tenants) == 0 {
		tenants = kept
	}
	for _, isp := range tenants {
		pm.AddTenant(cid, isp)
	}
	return nil
}

// lostTrafficClone is the reference capacity stage: recompute every
// pair on the perturbed map's own graph. pm's conduit ids coincide
// with the view the overlay path reads, so the staged flow networks —
// and therefore the float sums — are identical.
func lostTrafficClone(snap *snapshot, pm *fiber.Map) *LostTraffic {
	cb := snap.capacity()
	caps := capacityTable(pm, nil)
	lt, _, _ := lostTrafficOn(cb, pm.Graph(), graph.NewWorkspace(), caps, nil, nil)
	return lt
}

// referenceSweep is Sweep over referenceEvaluate: one pinned
// snapshot, the same par fan-out, outcomes at their input index.
func referenceSweep(ctx context.Context, e *Engine, scs []Scenario, workers int) []Outcome {
	snap := e.snapshot()
	out, _ := par.MapCtx(ctx, len(scs), workers, func(i int) Outcome {
		res, err := referenceEvaluate(ctx, e, snap, scs[i])
		if err != nil {
			return Outcome{Err: err.Error(), Canceled: isCancellation(err)}
		}
		return Outcome{Result: res}
	})
	return out
}
