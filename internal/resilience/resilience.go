// Package resilience analyzes the physical robustness of the
// long-haul map to conduit failures — the dimension the paper's §4
// opens ("the number of fiber cuts needed to partition the US
// long-haul infrastructure ... has associated security implications")
// and defers to future work. It quantifies:
//
//   - the impact of cutting a set of conduits on each provider
//     (disconnected node pairs, largest surviving component);
//   - targeted versus random cut strategies, showing that the heavily
//     shared conduits of §4 are precisely the high-impact targets;
//   - per-provider partition cost: the minimum number of conduit cuts
//     that splits a backbone (Stoer-Wagner global min cut);
//   - conduit criticality via shortest-path edge betweenness.
package resilience

import (
	"math"
	"math/rand"
	"sort"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/risk"
)

// Impact describes what a set of conduit cuts does to one provider.
type Impact struct {
	ISP string
	// CutsHit is how many of the cut conduits the provider occupied.
	CutsHit int
	// DisconnectedPairs is the fraction of the provider's node pairs
	// that lose connectivity over its own published conduits.
	DisconnectedPairs float64
	// LargestComponent is the fraction of the provider's nodes left in
	// its largest surviving component.
	LargestComponent float64
}

// CutImpact evaluates a cut set against every ISP in the matrix,
// through ImpactOn with the map as its own view. Results are sorted by
// decreasing DisconnectedPairs.
func CutImpact(m *fiber.Map, mx *risk.Matrix, cuts []fiber.ConduitID) []Impact {
	cut := make([]bool, m.NumConduits())
	for _, cid := range cuts {
		cut[cid] = true
	}
	var s ImpactScratch
	out := make([]Impact, 0, len(mx.ISPs))
	for _, isp := range mx.ISPs {
		out = append(out, s.ImpactOn(m, isp, m.NodesOf(isp), cuts, cut))
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].DisconnectedPairs > out[j].DisconnectedPairs
	})
	return out
}

// MeanDisconnection averages DisconnectedPairs over a result set —
// the scalar used to compare cut strategies.
func MeanDisconnection(impacts []Impact) float64 {
	if len(impacts) == 0 {
		return 0
	}
	var sum float64
	for _, im := range impacts {
		sum += im.DisconnectedPairs
	}
	return sum / float64(len(impacts))
}

// TargetedBySharing returns the k most-shared conduits — the §4
// choke points as a cut strategy.
func TargetedBySharing(mx *risk.Matrix, k int) []fiber.ConduitID {
	return mx.TopShared(k)
}

// TargetedByBetweenness returns the k conduits with the highest
// shortest-path betweenness over the lit conduit graph.
func TargetedByBetweenness(m *fiber.Map, k int) []fiber.ConduitID {
	return topByBetweenness(m.Graph().EdgeBetweenness(m.LitWeight()), k)
}

// topByBetweenness returns the k conduits with the highest edge
// betweenness bc (ties by conduit id), skipping conduits no shortest
// path crosses.
func topByBetweenness(bc []float64, k int) []fiber.ConduitID {
	type scored struct {
		cid fiber.ConduitID
		v   float64
	}
	all := make([]scored, 0, len(bc))
	for eid, v := range bc {
		if v > 0 {
			all = append(all, scored{cid: fiber.ConduitID(eid), v: v})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].cid < all[j].cid
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]fiber.ConduitID, len(all))
	for i, s := range all {
		out[i] = s.cid
	}
	return out
}

// RandomCuts draws trials random k-conduit cut sets (over tenanted
// conduits) and returns the mean across trials of the mean
// disconnection — the baseline a targeted attacker is compared
// against.
func RandomCuts(m *fiber.Map, mx *risk.Matrix, k, trials int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var lit []fiber.ConduitID
	for i := range m.Conduits {
		if len(m.Conduits[i].Tenants) > 0 {
			lit = append(lit, m.Conduits[i].ID)
		}
	}
	if len(lit) == 0 || k <= 0 || trials <= 0 {
		return 0
	}
	if k > len(lit) {
		k = len(lit)
	}
	var total float64
	for t := 0; t < trials; t++ {
		perm := rng.Perm(len(lit))
		cuts := make([]fiber.ConduitID, k)
		for i := 0; i < k; i++ {
			cuts[i] = lit[perm[i]]
		}
		total += MeanDisconnection(CutImpact(m, mx, cuts))
	}
	return total / float64(trials)
}

// PartitionCost is one provider's minimum-cut summary.
type PartitionCost struct {
	ISP string
	// MinCuts is the minimum number of conduit cuts that partitions
	// the provider's backbone (0 if it is already disconnected).
	MinCuts int
	// Nodes is the provider's footprint size.
	Nodes int
}

// UnitWeights fills dst (resized as needed) with the provider's
// partition-cost edge weights over m's conduit graph: 1 on every
// conduit the provider lights, +Inf (excluded) elsewhere.
func UnitWeights(m *fiber.Map, isp string, dst []float64) []float64 {
	n := m.NumConduits()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for cid := range dst {
		dst[cid] = math.Inf(1)
		if m.Conduit(fiber.ConduitID(cid)).HasTenant(isp) {
			dst[cid] = 1
		}
	}
	return dst
}

// PartitionCosts computes, per provider, the minimum number of conduit
// cuts that splits its published backbone (Stoer-Wagner with unit
// conduit weights, through PartitionCostWS). Sorted ascending by
// MinCuts — the most fragile providers first.
func PartitionCosts(m *fiber.Map, isps []string) []PartitionCost {
	g := m.Graph()
	ws := graph.NewWorkspace()
	var unit []float64
	out := make([]PartitionCost, 0, len(isps))
	for _, isp := range isps {
		unit = UnitWeights(m, isp, unit)
		nodes := m.NodesOf(isp)
		verts := make([]int, len(nodes))
		for i, n := range nodes {
			verts[i] = int(n)
		}
		out = append(out, PartitionCost{
			ISP:     isp,
			MinCuts: PartitionCostWS(g, ws, verts, unit, nil),
			Nodes:   len(nodes),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].MinCuts < out[j].MinCuts })
	return out
}

// CriticalConduit is one row of the criticality ranking.
type CriticalConduit struct {
	Conduit     fiber.ConduitID
	A, B        string
	Betweenness float64
	Sharing     int
}

// Criticality ranks the top-k conduits by betweenness and reports
// their sharing degree — the overlap between "carries the most paths"
// and "shared by the most ISPs" is the paper's risk story in one
// table.
func Criticality(m *fiber.Map, mx *risk.Matrix, k int) []CriticalConduit {
	bc := m.Graph().EdgeBetweenness(m.LitWeight())
	ids := topByBetweenness(bc, k)
	out := make([]CriticalConduit, 0, len(ids))
	for _, cid := range ids {
		c := m.Conduit(cid)
		out = append(out, CriticalConduit{
			Conduit:     cid,
			A:           m.Node(c.A).Key(),
			B:           m.Node(c.B).Key(),
			Betweenness: bc[int(cid)],
			Sharing:     mx.Sharing(cid),
		})
	}
	return out
}
