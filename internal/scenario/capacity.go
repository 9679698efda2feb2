package scenario

import (
	"sort"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
)

// capacity.go is the traffic half of the IP-over-optical capacity
// layer: a gravity-model demand matrix over the map's city
// populations (the same weighting the traceroute campaign draws its
// endpoint mix from), evaluated against per-conduit capacities
// (fiber/capacity.go) with the Dinic kernel. The baseline — demand
// pairs, capacity table, per-pair max flows, and the lit-capacity
// component of every node — is memoized once per snapshot; each
// evaluation then reports how many Gbps of baseline-served demand the
// perturbation strands.
//
// The evaluation runs on the shared snapshot graph with the overlay's
// capacity table and virtual conduits as extra edges, and reuses the
// memoized baseline flow for any pair whose source and sink lit
// components the perturbation never reaches (snapshot.reaches). Only a
// tenanted conduit has positive capacity, so every positive-capacity
// component lies inside one lit component and marking lit components
// is sound (with at least 2 wavelengths per tenant the two partitions
// coincide, so it is not coarser either). Reuse is sound because an excluded (zero-capacity) edge is never staged into
// the flow network at all: two graphs that agree on the subgraph
// reachable from the source produce identical augmenting-path
// sequences, hence identical float64 flow sums. The result is
// bit-identical to re-flowing every pair on the materialized map's own
// graph, which the differential suite checks.

// demandPairs is how many top gravity pairs form the demand matrix.
// Small enough that a capacity stage costs a bounded number of flow
// queries per evaluation, large enough to cover the major corridors.
const demandPairs = 32

// demandFraction scales total offered demand relative to total
// baseline network capacity. Offered demand deliberately exceeds most
// single-pair path capacities so a capacity-reducing cut shows up as
// lost Gbps rather than disappearing into slack.
const demandFraction = 0.5

// LostTraffic quantifies the demand the perturbation strands: the
// gravity demand matrix evaluated before and after, in Gbps. LostGbps
// is ServedBeforeGbps - ServedAfterGbps; an addition-only scenario
// can make it negative (the network serves more than the baseline).
type LostTraffic struct {
	// Demands is the number of gravity pairs evaluated.
	Demands int `json:"demands"`
	// OfferedGbps is the total demand offered across all pairs.
	OfferedGbps float64 `json:"offeredGbps"`
	// ServedBeforeGbps / ServedAfterGbps are the demand actually
	// carried (min of offered and max-flow, summed over pairs).
	ServedBeforeGbps float64 `json:"servedBeforeGbps"`
	ServedAfterGbps  float64 `json:"servedAfterGbps"`
	// LostGbps is the headline delta: baseline-served Gbps the
	// perturbed network no longer carries.
	LostGbps float64 `json:"lostGbps"`
}

// trafficDemand is one gravity pair: endpoints and offered Gbps.
type trafficDemand struct {
	s, t fiber.NodeID
	gbps float64
}

// capacityBaseline is the snapshot's memoized capacity state.
type capacityBaseline struct {
	demands []trafficDemand
	offered float64
	// caps[cid] is the baseline capacity of base conduit cid.
	caps []float64
	// served[i] is demand i's baseline carried Gbps; servedTotal their
	// sum, accumulated in demand order.
	served      []float64
	servedTotal float64
}

// capacityTable fills dst with per-conduit capacities under v's
// effective tenancy, growing it as needed.
func capacityTable(v fiber.View, dst []float64) []float64 {
	nc := v.NumConduits()
	if cap(dst) < nc {
		dst = make([]float64, nc)
	}
	dst = dst[:nc]
	for cid := 0; cid < nc; cid++ {
		dst[cid] = fiber.ConduitCapacityGbps(v, fiber.ConduitID(cid))
	}
	return dst
}

// capacity memoizes the snapshot's capacity baseline: gravity
// demands, the capacity table, and per-pair baseline flows.
func (s *snapshot) capacity() *capacityBaseline {
	s.capOnce.Do(func() {
		s.baseline() // the conduit graph s.g rides with the baseline
		m := s.res.Map
		cb := &s.capBase
		cb.caps = capacityTable(m, nil)

		cb.demands = buildDemands(m, cb.caps)
		for _, d := range cb.demands {
			cb.offered += d.gbps
		}

		ws := graph.NewWorkspace()
		cb.served = make([]float64, len(cb.demands))
		for i, d := range cb.demands {
			mf := s.g.MaxFlowWS(ws, int(d.s), int(d.t), cb.caps, nil)
			if mf > d.gbps {
				mf = d.gbps
			}
			cb.served[i] = mf
			cb.servedTotal += mf
		}
	})
	return &s.capBase
}

// buildDemands selects the top gravity pairs by population product
// (ties broken by node ids, so the matrix is deterministic) and
// scales them so total offered demand is demandFraction of total
// baseline capacity.
func buildDemands(m *fiber.Map, caps []float64) []trafficDemand {
	type cand struct {
		s, t fiber.NodeID
		w    float64
	}
	var cands []cand
	for i := range m.Nodes {
		pi := float64(m.Nodes[i].Population)
		if pi <= 0 {
			continue
		}
		for j := i + 1; j < len(m.Nodes); j++ {
			pj := float64(m.Nodes[j].Population)
			if pj <= 0 {
				continue
			}
			cands = append(cands, cand{s: fiber.NodeID(i), t: fiber.NodeID(j), w: pi * pj})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		if cands[i].s != cands[j].s {
			return cands[i].s < cands[j].s
		}
		return cands[i].t < cands[j].t
	})
	if len(cands) > demandPairs {
		cands = cands[:demandPairs]
	}

	var totalCap, totalW float64
	for _, c := range caps {
		totalCap += c
	}
	for _, c := range cands {
		totalW += c.w
	}
	out := make([]trafficDemand, 0, len(cands))
	for _, c := range cands {
		gbps := 0.0
		if totalW > 0 {
			gbps = demandFraction * totalCap * (c.w / totalW)
		}
		out = append(out, trafficDemand{s: c.s, t: c.t, gbps: gbps})
	}
	return out
}

// lostTrafficOn evaluates the demand matrix on a perturbed topology:
// g must use the view's base conduit ids as edge ids, caps[eid] their
// perturbed capacities, and extra any overlay-only conduits carrying
// capacity as Weight. reusable (nil means never) reports whether a
// demand index may take its memoized baseline flow instead of a fresh
// query — callers guarantee that is exact, not approximate. Returns
// the delta plus recomputed/reused counts for span attribution.
func lostTrafficOn(cb *capacityBaseline, g *graph.Graph, ws *graph.Workspace, caps []float64, extra []graph.Edge, reusable func(i int) bool) (*LostTraffic, int, int) {
	lt := &LostTraffic{
		Demands:          len(cb.demands),
		OfferedGbps:      cb.offered,
		ServedBeforeGbps: cb.servedTotal,
	}
	recomputed, reused := 0, 0
	for i, d := range cb.demands {
		var served float64
		if reusable != nil && reusable(i) {
			served = cb.served[i]
			reused++
		} else {
			served = g.MaxFlowWS(ws, int(d.s), int(d.t), caps, extra)
			if served > d.gbps {
				served = d.gbps
			}
			recomputed++
		}
		lt.ServedAfterGbps += served
	}
	lt.LostGbps = lt.ServedBeforeGbps - lt.ServedAfterGbps
	return lt, recomputed, reused
}
