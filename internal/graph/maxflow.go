package graph

import "math"

// maxflow.go grows the kernel from global min-cut to s-t maximum
// flow. The capacity layer asks "how many Gbps survive between this
// demand pair" for every scenario evaluation in a sweep, so the
// kernel follows the same discipline as GlobalMinCutWS: the base CSR
// stays shared and immutable, the query's per-edge capacities arrive
// as a flat table, overlay-only conduits ride along as extra edges,
// and every byte of scratch lives in the Workspace — zero allocations
// once warm.
//
// The algorithm is Dinic's: BFS level graph, then DFS blocking flow
// with per-vertex arc cursors. An undirected edge of capacity c
// becomes a twin arc pair (u→v and v→u, capacity c each) that act as
// each other's residuals — the standard undirected reduction, under
// which the twin of arc a is arc a^1. Iteration order is fixed by the
// staged arc order (base edges ascending by id, then extras in input
// order), so the returned flow value is bit-identical across runs,
// workspaces, and — because excluded arcs are never staged — across
// hosting graphs that agree on the reachable subgraph.

// maxflowScratch is the reusable state of MaxFlowWS, owned by a
// Workspace and grown lazily.
type maxflowScratch struct {
	arcOff []int32   // CSR offsets per vertex over staged arc cells
	arcIdx []int32   // CSR cell -> arc id
	arcTo  []int32   // per arc: head vertex
	arcCap []float64 // per arc: residual capacity (twin of a is a^1)
	cur    []int32   // staging cursor, then DFS arc cursor per vertex
	level  []int32   // BFS level, -1 unreached
	queue  []int32
	path   []int32 // DFS stack of arc ids from src
}

// maxflow returns the workspace's max-flow scratch, allocating it on
// first use.
func (w *Workspace) maxflow() *maxflowScratch {
	if w.mf == nil {
		w.mf = &maxflowScratch{}
	}
	return w.mf
}

// MaxFlowWS returns the maximum s-t flow of the graph under the given
// edge capacities, with all scratch in ws:
//
//   - caps[eid] is the capacity of base edge eid; a zero, negative,
//     +Inf, or NaN capacity excludes the edge, matching
//     GlobalMinCutWS's usable-edge rule (nil caps uses the graph's
//     default weight table);
//   - extra lists overlay edges absent from the base graph (new
//     conduit builds); their Weight fields are their capacities, under
//     the same exclusion rule.
//
// Edges are undirected: capacity c may be consumed in either
// direction (but not both at once beyond c). Self-loops carry no
// flow. src == dst, or either endpoint out of range, returns 0.
//
// With integral capacities the result is exact; in general the
// float64 sum is deterministic because augmenting paths are found in
// a fixed arc order.
func (g *Graph) MaxFlowWS(ws *Workspace, src, dst int, caps []float64, extra []Edge) float64 {
	n := g.n
	if src == dst || src < 0 || src >= n || dst < 0 || dst >= n {
		return 0
	}
	if caps == nil {
		caps = g.topoView().defWeights
	}
	mf := ws.maxflow()

	grow := func(p []int32, n int) []int32 {
		if cap(p) < n {
			return make([]int32, n)
		}
		return p[:n]
	}
	mf.arcOff = grow(mf.arcOff, n+1)
	mf.cur = grow(mf.cur, n)
	mf.level = grow(mf.level, n)
	mf.queue = grow(mf.queue, n)
	mf.path = grow(mf.path, n)
	off, cur, level, queue, path := mf.arcOff, mf.cur, mf.level, mf.queue, mf.path

	usable := func(u, v int, w float64) bool {
		if w <= 0 || math.IsInf(w, 1) || math.IsNaN(w) {
			return false
		}
		return u != v && u >= 0 && u < n && v >= 0 && v < n
	}

	// Pass 1: count usable arcs per tail vertex.
	for i := range off {
		off[i] = 0
	}
	na := 0
	for eid := range g.edges {
		e := &g.edges[eid]
		if usable(e.U, e.V, caps[eid]) {
			off[e.U+1]++
			off[e.V+1]++
			na += 2
		}
	}
	for i := range extra {
		e := &extra[i]
		if usable(e.U, e.V, e.Weight) {
			off[e.U+1]++
			off[e.V+1]++
			na += 2
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}

	mf.arcIdx = grow(mf.arcIdx, na)
	mf.arcTo = grow(mf.arcTo, na)
	if cap(mf.arcCap) < na {
		mf.arcCap = make([]float64, na)
	}
	arcIdx, arcTo, arcCap := mf.arcIdx[:na], mf.arcTo[:na], mf.arcCap[:na]

	// Pass 2: lay the twin arc pairs in staged order and fill the CSR
	// cells with a counting sort.
	copy(cur, off[:n])
	arc := int32(0)
	add := func(u, v int, w float64) {
		arcTo[arc], arcCap[arc] = int32(v), w
		arcTo[arc+1], arcCap[arc+1] = int32(u), w
		arcIdx[cur[u]] = arc
		cur[u]++
		arcIdx[cur[v]] = arc + 1
		cur[v]++
		arc += 2
	}
	for eid := range g.edges {
		e := &g.edges[eid]
		if usable(e.U, e.V, caps[eid]) {
			add(e.U, e.V, caps[eid])
		}
	}
	for i := range extra {
		e := &extra[i]
		if usable(e.U, e.V, e.Weight) {
			add(e.U, e.V, e.Weight)
		}
	}

	// BFS level graph over positive-residual arcs.
	bfs := func() bool {
		for i := 0; i < n; i++ {
			level[i] = -1
		}
		level[src] = 0
		queue[0] = int32(src)
		qh, qt := 0, 1
		for qh < qt {
			u := queue[qh]
			qh++
			for c := off[u]; c < off[u+1]; c++ {
				a := arcIdx[c]
				if arcCap[a] <= 0 {
					continue
				}
				v := arcTo[a]
				if level[v] >= 0 {
					continue
				}
				level[v] = level[u] + 1
				queue[qt] = v
				qt++
			}
		}
		return level[dst] >= 0
	}

	total := 0.0
	for bfs() {
		// Blocking flow: iterative DFS with per-vertex cursors. A
		// vertex that dead-ends is pruned by resetting its level; a
		// saturated path arc fails the residual check on revisit, so
		// cursors are never rewound within a phase.
		copy(cur, off[:n])
		sp := 0
		v := int32(src)
		for {
			if v == int32(dst) {
				b := math.Inf(1)
				for i := 0; i < sp; i++ {
					if c := arcCap[path[i]]; c < b {
						b = c
					}
				}
				cutAt := sp
				for i := 0; i < sp; i++ {
					a := path[i]
					arcCap[a] -= b
					arcCap[a^1] += b
					if arcCap[a] <= 0 && i < cutAt {
						cutAt = i
					}
				}
				total += b
				sp = cutAt
				if sp == 0 {
					v = int32(src)
				} else {
					v = arcTo[path[sp-1]]
				}
				continue
			}
			advanced := false
			for cur[v] < off[v+1] {
				a := arcIdx[cur[v]]
				u := arcTo[a]
				if arcCap[a] > 0 && level[u] == level[v]+1 {
					path[sp] = a
					sp++
					v = u
					advanced = true
					break
				}
				cur[v]++
			}
			if !advanced {
				level[v] = -1
				if sp == 0 {
					break
				}
				sp--
				v = arcTo[path[sp]^1]
			}
		}
	}
	return total
}
