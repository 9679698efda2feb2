package scenario

import (
	"context"

	"intertubes/internal/fiber"
	"intertubes/internal/latency"
)

// atlas.go wires the all-pairs latency atlas (internal/latency) into
// the engine: the baseline atlas is memoized on the snapshot behind
// an atomic pointer, and a scenario's atlas is built over the
// copy-on-write overlay view, reusing every baseline matrix row whose
// source the perturbation provably cannot affect.
//
// The reuse rule works on connected components of the lit-conduit
// graph: a source's reachable region is exactly its lit component, so
// its row can only change if the perturbation touches that component
// — a cut or provider removal darkening one of its conduits, or an
// addition landing an endpoint in it (which also merges in whatever
// the other endpoint's component could reach). Marking whole
// components is conservative — a far-side cut recomputes more rows
// than strictly necessary — but never unsound, and the differential
// suite pins byte-identical results against a from-scratch rebuild.

// litComponents returns the union-find component id of every node
// over conduits with lit fiber (>= 1 tenant), memoized per snapshot.
func (s *snapshot) litComponents() []int32 {
	s.litOnce.Do(func() {
		m := s.res.Map
		parent := make([]int32, m.NumNodes())
		for i := range parent {
			parent[i] = int32(i)
		}
		var find func(int32) int32
		find = func(x int32) int32 {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for cid := 0; cid < m.NumConduits(); cid++ {
			if len(m.Tenants(fiber.ConduitID(cid))) == 0 {
				continue
			}
			a, b := m.ConduitEnds(fiber.ConduitID(cid))
			ra, rb := find(int32(a)), find(int32(b))
			if ra != rb {
				parent[ra] = rb
			}
		}
		s.litComp = make([]int32, len(parent))
		for i := range parent {
			s.litComp[i] = find(int32(i))
		}
	})
	return s.litComp
}

// reaches reports, per node, whether the perturbation touches the
// node's baseline lit component: an endpoint of a cut conduit, of any
// conduit a removed provider occupied, or of an addition (which may
// also bridge two components) lies in it. A node whose component is
// untouched sees a byte-identical reachable subgraph, so anything
// computed from it alone — its atlas row, the flow between two such
// nodes — equals its baseline value exactly.
func (s *snapshot) reaches(p *perturbation) func(fiber.NodeID) bool {
	m := s.res.Map
	comp := s.litComponents()
	touched := make(map[int32]bool)
	markConduit := func(cid fiber.ConduitID) {
		a, b := m.ConduitEnds(cid)
		touched[comp[a]] = true
		touched[comp[b]] = true
	}
	for _, cid := range p.Cuts {
		markConduit(cid)
	}
	for _, isp := range p.RemoveISPs {
		for _, cid := range m.ConduitsOf(isp) {
			markConduit(cid)
		}
	}
	for _, ad := range p.Additions {
		touched[comp[ad.A]] = true
		touched[comp[ad.B]] = true
	}
	return func(n fiber.NodeID) bool { return touched[comp[n]] }
}

// LatencyAtlas returns the baseline snapshot's all-pairs latency
// atlas and the baseline version it belongs to, building the atlas on
// first use. The atlas is immutable and shared; a SwapBaseline starts
// a fresh snapshot whose atlas is rebuilt on demand. A canceled build
// is not cached.
func (e *Engine) LatencyAtlas(ctx context.Context) (*latency.Atlas, uint64, error) {
	snap := e.snapshot()
	at, err := e.latencyAtlasOn(ctx, snap)
	return at, snap.version, err
}

func (e *Engine) latencyAtlasOn(ctx context.Context, snap *snapshot) (*latency.Atlas, error) {
	if at := snap.atlasPtr.Load(); at != nil {
		return at, nil
	}
	snap.atlasMu.Lock()
	defer snap.atlasMu.Unlock()
	if at := snap.atlasPtr.Load(); at != nil {
		return at, nil
	}
	at, err := latency.Build(ctx, snap.res.Map, latency.Options{Workers: e.opts.Workers})
	if err != nil {
		return nil, err
	}
	snap.atlasPtr.Store(at)
	return at, nil
}

// LatencyAtlasFor evaluates a scenario's perturbation as a latency
// atlas over the overlay view, recomputing only rows whose source's
// lit component the perturbation touches and reusing every other
// baseline row verbatim (Atlas.ReusedRows reports how many). The
// scenario is resolved first, so a preset contributes its clauses and
// an invalid spec is rejected. The result is byte-identical to a
// from-scratch build on the materialized perturbed map.
func (e *Engine) LatencyAtlasFor(ctx context.Context, sc Scenario) (*latency.Atlas, error) {
	snap := e.snapshot()
	base, err := e.latencyAtlasOn(ctx, snap)
	if err != nil {
		return nil, err
	}
	p, err := snap.perturb(sc)
	if err != nil {
		return nil, err
	}
	reaches := snap.reaches(p)
	reuse := func(src fiber.NodeID) bool { return !reaches(src) }
	return latency.BuildView(ctx, snap.res.Map, p.ov.Final(), base, reuse, latency.Options{Workers: e.opts.Workers})
}
