package resilience

import (
	"math"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/risk"
)

// view_test.go pins the per-provider kernels to brute-force oracles
// that share no code with them: ImpactOn (and CutImpact, built on it)
// must reproduce a per-node reachability count exactly, on the raw
// baseline map and on a perturbed overlay view against its
// materialized clone, and the partition costs built on PartitionCostWS
// must agree with a max-flow oracle.

// impactByISP indexes CutImpact's sorted output by provider.
func impactByISP(impacts []Impact) map[string]Impact {
	out := make(map[string]Impact, len(impacts))
	for _, im := range impacts {
		out[im.ISP] = im
	}
	return out
}

func cutIndicator(n int, cuts []fiber.ConduitID) []bool {
	cut := make([]bool, n)
	for _, cid := range cuts {
		cut[cid] = true
	}
	return cut
}

// oracleImpact computes one provider's Impact on a map by brute force:
// a Dijkstra from every footprint node over the provider's uncut
// conduits counts the connected ordered pairs and the largest
// component directly.
func oracleImpact(m *fiber.Map, isp string, cuts []fiber.ConduitID) Impact {
	im := Impact{ISP: isp}
	cut := cutIndicator(m.NumConduits(), cuts)
	for _, cid := range cuts {
		if m.Conduit(cid).HasTenant(isp) {
			im.CutsHit++
		}
	}
	nodes := m.NodesOf(isp)
	n := len(nodes)
	if n < 2 {
		im.LargestComponent = 1
		return im
	}
	g := m.Graph()
	ws := graph.NewWorkspace()
	wf := func(eid int) float64 {
		if cut[eid] || !m.Conduit(fiber.ConduitID(eid)).HasTenant(isp) {
			return math.Inf(1)
		}
		return 1
	}
	connected, largest := 0, 0
	for _, u := range nodes {
		dist := g.ShortestDistancesWS(ws, int(u), wf, nil)
		reach := 0
		for _, v := range nodes {
			if !math.IsInf(dist[v], 1) {
				reach++
			}
		}
		connected += reach - 1
		if reach > largest {
			largest = reach
		}
	}
	im.DisconnectedPairs = 1 - float64(connected)/float64(n*(n-1))
	im.LargestComponent = float64(largest) / float64(n)
	return im
}

func TestImpactOnMatchesCutImpactRing(t *testing.T) {
	m, cids := ringMap(t)
	mx := risk.Build(m, nil)
	var s ImpactScratch
	cutSets := [][]fiber.ConduitID{
		nil,
		{cids[0]},
		{cids[4]},
		{cids[0], cids[2]},
		{cids[0], cids[1], cids[2], cids[3], cids[4]},
	}
	for _, cuts := range cutSets {
		rows := impactByISP(CutImpact(m, mx, cuts))
		cut := cutIndicator(m.NumConduits(), cuts)
		for _, isp := range mx.ISPs {
			want := oracleImpact(m, isp, cuts)
			if got := s.ImpactOn(m, isp, m.NodesOf(isp), cuts, cut); got != want {
				t.Errorf("cuts %v isp %s: ImpactOn %+v != oracle %+v", cuts, isp, got, want)
			}
			if rows[isp] != want {
				t.Errorf("cuts %v isp %s: CutImpact %+v != oracle %+v", cuts, isp, rows[isp], want)
			}
		}
	}
}

func TestImpactOnMatchesCutImpactAtlas(t *testing.T) {
	res, mx := build(t)
	m := res.Map
	cuts := mx.TopShared(5)
	rows := impactByISP(CutImpact(m, mx, cuts))
	cut := cutIndicator(m.NumConduits(), cuts)
	var s ImpactScratch
	for _, isp := range mx.ISPs {
		want := oracleImpact(m, isp, cuts)
		if got := s.ImpactOn(m, isp, m.NodesOf(isp), cuts, cut); got != want {
			t.Errorf("isp %s: ImpactOn %+v != oracle %+v", isp, got, want)
		}
		if rows[isp] != want {
			t.Errorf("isp %s: CutImpact %+v != oracle %+v", isp, rows[isp], want)
		}
	}
}

func TestImpactOnOverlayMatchesMutatedClone(t *testing.T) {
	res, mx := build(t)
	m := res.Map
	isps := mx.ISPs

	pert := fiber.Perturbation{
		Cuts:       mx.TopShared(3),
		RemoveISPs: []string{isps[0]},
		Additions: []fiber.OverlayAddition{
			{A: 0, B: fiber.NodeID(m.NumNodes() - 1), Tenants: []string{isps[1], isps[2]}},
		},
	}
	ov, err := fiber.NewOverlay(m, pert)
	if err != nil {
		t.Fatal(err)
	}

	// Clone: removals + additions lit (the "plus" map), per the
	// engine's order. Cuts stay lit; the oracle excludes them by
	// weight.
	pmPlus := m.Clone()
	for _, isp := range pert.RemoveISPs {
		pmPlus.RemoveISP(isp)
	}
	for _, ad := range pert.Additions {
		path := geo.Polyline{pmPlus.Node(ad.A).Loc, pmPlus.Node(ad.B).Loc}
		cid := pmPlus.EnsureConduit(ad.A, ad.B, -1, path)
		for _, isp := range ad.Tenants {
			pmPlus.AddTenant(cid, isp)
		}
	}

	kept := isps[1:]
	mx2 := risk.BuildFrom(ov.Final(), kept)
	cut := cutIndicator(ov.NumBaseConduits(), pert.Cuts)
	plus := ov.Plus()
	var s ImpactScratch
	for _, isp := range mx2.ISPs {
		want := oracleImpact(pmPlus, isp, pert.Cuts)
		if got := s.ImpactOn(plus, isp, plus.NodesOf(isp), pert.Cuts, cut); got != want {
			t.Errorf("isp %s: overlay ImpactOn %+v != oracle on the clone %+v", isp, got, want)
		}
	}
}

// TestPartitionCostsMatchMengerOracle checks every provider's partition
// cost against an oracle that shares no code with Stoer-Wagner: by
// Menger's theorem the minimum number of conduits whose removal splits
// a footprint is the minimum, over every other footprint node t, of
// the unit-capacity max flow from one fixed node to t (0 when the
// footprint is already split).
func TestPartitionCostsMatchMengerOracle(t *testing.T) {
	res, mx := build(t)
	m := res.Map
	g := m.Graph()
	ws := graph.NewWorkspace()
	var unit []float64

	got := PartitionCosts(m, mx.ISPs)
	if len(got) != len(mx.ISPs) {
		t.Fatalf("PartitionCosts returned %d rows for %d providers", len(got), len(mx.ISPs))
	}
	for _, pc := range got {
		unit = UnitWeights(m, pc.ISP, unit) // +Inf conduits stay out of the flow network
		nodes := m.NodesOf(pc.ISP)
		want := 0
		if len(nodes) >= 2 {
			want = math.MaxInt
			for _, n := range nodes[1:] {
				if f := int(g.MaxFlowWS(ws, int(nodes[0]), int(n), unit, nil)); f < want {
					want = f
				}
			}
		}
		if pc.MinCuts != want || pc.Nodes != len(nodes) {
			t.Errorf("isp %s: PartitionCosts = %d cuts over %d nodes, Menger oracle %d over %d",
				pc.ISP, pc.MinCuts, pc.Nodes, want, len(nodes))
		}
	}
}
