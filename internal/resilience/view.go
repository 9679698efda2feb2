package resilience

import (
	"math"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
)

// view.go holds the per-provider kernels behind CutImpact and
// PartitionCosts, computed against any fiber.View — the baseline map
// itself, or a scenario overlay the engine's copy-on-write path reads
// without cloning a map — with reusable scratch, and for partition
// costs through the sparse Stoer-Wagner kernel. The component
// statistics are integers before the final divisions and the unique
// min-cut value is integral, so an overlay view and the materialized
// map it stands for give bit-identical results.

// ImpactScratch carries the union-find state ImpactOn reuses across
// calls. The zero value is ready; not safe for concurrent use.
type ImpactScratch struct {
	parent []int32
	count  []int32
}

// ImpactOn computes one provider's Impact under a cut set, against a
// view. nodes is the provider's footprint on the view (v.NodesOf(isp)
// — callers typically have it already); cuts is the resolved cut list
// and cut its indicator indexed by conduit id (ids at or beyond
// len(cut) — overlay virtuals — are never cut). The result matches
// the provider's row of CutImpact over the materialized equivalent.
func (s *ImpactScratch) ImpactOn(v fiber.View, isp string, nodes []fiber.NodeID, cuts []fiber.ConduitID, cut []bool) Impact {
	im := Impact{ISP: isp}
	for _, cid := range cuts {
		if v.HasTenant(cid, isp) {
			im.CutsHit++
		}
	}
	n := len(nodes)
	if n < 2 {
		im.DisconnectedPairs = 0
		im.LargestComponent = 1
		return im
	}

	if nn := v.NumNodes(); len(s.parent) < nn {
		s.parent = make([]int32, nn)
		s.count = make([]int32, nn)
	}
	parent := s.parent
	for _, nid := range nodes {
		parent[nid] = int32(nid)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	nc := v.NumConduits()
	for cid := fiber.ConduitID(0); int(cid) < nc; cid++ {
		if int(cid) < len(cut) && cut[cid] {
			continue
		}
		if !v.HasTenant(cid, isp) {
			continue
		}
		a, b := v.ConduitEnds(cid)
		ra, rb := find(int32(a)), find(int32(b))
		if ra != rb {
			parent[ra] = rb
		}
	}
	var sumSq, max int
	for _, nid := range nodes {
		s.count[find(int32(nid))]++
	}
	for _, nid := range nodes {
		r := find(int32(nid))
		if c := int(s.count[r]); c > 0 {
			sumSq += c * c
			if c > max {
				max = c
			}
			s.count[r] = 0
		}
	}
	total := n * (n - 1)
	connected := sumSq - n
	im.DisconnectedPairs = 1 - float64(connected)/float64(total)
	im.LargestComponent = float64(max) / float64(n)
	return im
}

// PartitionCostWS computes one provider's minimum conduit cuts to
// partition — the PartitionCosts per-ISP value — through the sparse
// workspace Stoer-Wagner kernel. verts is the provider's footprint,
// weights the materialized per-edge table (1 on the provider's
// conduits, +Inf elsewhere), extra any overlay-added edges. Returns 0
// when the footprint is trivial or already disconnected.
func PartitionCostWS(g *graph.Graph, ws *graph.Workspace, verts []int, weights []float64, extra []graph.Edge) int {
	if cut, ok := g.GlobalMinCutWS(ws, verts, weights, extra); ok {
		return int(math.Round(cut))
	}
	return 0
}
