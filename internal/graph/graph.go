// Package graph provides the routing substrate: an undirected
// multigraph with integer vertices, Dijkstra shortest paths under
// caller-supplied edge weights, Yen's k-shortest loopless paths, and
// connectivity utilities. It is an allocation-aware compute kernel:
// the mitigation analyses in §5 of the paper run many thousands of
// shortest-path queries per experiment, so adjacency lives in a
// compact CSR layout, the priority queue is a typed 4-ary heap, and
// all per-query scratch state is reusable through Workspace (zero
// steady-state allocations for distance queries).
package graph

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Edge is an undirected edge between vertices U and V with a default
// weight. Parallel edges and self-loops are permitted (the conduit
// graph has parallel deployments, e.g. Kansas City–Denver).
type Edge struct {
	U, V   int
	Weight float64
}

// halfEdge is one direction of an edge as seen from a vertex.
type halfEdge struct {
	to   int32
	edge int32
}

// topology is the immutable compiled form of the graph: a compressed-
// sparse-row adjacency (half[off[v]:off[v+1]] are v's incident half-
// edges, in edge-insertion order) plus the default weight table. It is
// rebuilt lazily after mutations; a built topology is never modified,
// so concurrent queries may share it freely.
type topology struct {
	off        []int32
	half       []halfEdge
	defWeights []float64
}

// Graph is an undirected multigraph. The zero value is an empty graph
// with no vertices; use New to pre-size. Queries compile the edge list
// into a CSR adjacency on first use; mutations (AddVertex, AddEdge)
// invalidate it. Concurrent queries are safe; mutating concurrently
// with queries is not (and never was).
type Graph struct {
	n      int
	edges  []Edge
	topo   atomic.Pointer[topology]
	topoMu sync.Mutex
}

// New returns a graph with n vertices (0..n-1) and no edges.
func New(n int) *Graph {
	return &Graph{n: n}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// AddVertex appends a vertex and returns its index.
func (g *Graph) AddVertex() int {
	g.n++
	g.topo.Store(nil)
	return g.n - 1
}

// AddEdge inserts an undirected edge u-v with the given weight and
// returns its edge id. It panics if either endpoint is out of range or
// the weight is negative or NaN.
func (g *Graph) AddEdge(u, v int, weight float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if weight < 0 || math.IsNaN(weight) {
		panic(fmt.Sprintf("graph: AddEdge weight %v must be non-negative", weight))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: weight})
	g.topo.Store(nil)
	return id
}

// topoView returns the compiled CSR topology, building it if a
// mutation invalidated the previous one. Safe for concurrent use.
func (g *Graph) topoView() *topology {
	if t := g.topo.Load(); t != nil {
		return t
	}
	g.topoMu.Lock()
	defer g.topoMu.Unlock()
	if t := g.topo.Load(); t != nil {
		return t
	}
	t := buildTopology(g.n, g.edges)
	g.topo.Store(t)
	return t
}

// buildTopology compiles the edge list with a counting sort. Filling
// in ascending edge-id order (u's half before v's) reproduces exactly
// the per-vertex adjacency order the old slice-of-slices layout got
// from its AddEdge appends — iteration order is part of the kernel's
// determinism contract.
func buildTopology(n int, edges []Edge) *topology {
	off := make([]int32, n+1)
	for i := range edges {
		e := &edges[i]
		off[e.U+1]++
		if e.U != e.V {
			off[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	half := make([]halfEdge, off[n])
	cur := make([]int32, n)
	copy(cur, off[:n])
	defW := make([]float64, len(edges))
	for i := range edges {
		e := &edges[i]
		half[cur[e.U]] = halfEdge{to: int32(e.V), edge: int32(i)}
		cur[e.U]++
		if e.U != e.V {
			half[cur[e.V]] = halfEdge{to: int32(e.U), edge: int32(i)}
			cur[e.V]++
		}
		defW[i] = e.Weight
	}
	return &topology{off: off, half: half, defWeights: defW}
}

// neighbors returns v's incident half-edges.
func (t *topology) neighbors(v int32) []halfEdge {
	return t.half[t.off[v]:t.off[v+1]]
}

// Neighbors calls fn for every incident edge of v with the neighbor
// vertex and edge id.
func (g *Graph) Neighbors(v int, fn func(to, edgeID int)) {
	for _, h := range g.topoView().neighbors(int32(v)) {
		fn(int(h.to), int(h.edge))
	}
}

// Path is a walk through the graph: Nodes has one more element than
// Edges, and Edges[i] connects Nodes[i] to Nodes[i+1].
type Path struct {
	Nodes  []int
	Edges  []int
	Weight float64
}

// Hops returns the number of edges in the path.
func (p Path) Hops() int { return len(p.Edges) }

// Clone deep-copies the path.
func (p Path) Clone() Path {
	q := Path{
		Nodes:  append([]int(nil), p.Nodes...),
		Edges:  append([]int(nil), p.Edges...),
		Weight: p.Weight,
	}
	return q
}

// WeightFunc maps an edge id to its traversal cost for one query.
// Returning +Inf excludes the edge. A nil WeightFunc uses each edge's
// default weight.
//
// The kernel materializes wf into a flat table once per sweep (see
// Workspace.materialize), so wf is called exactly once per edge id per
// query — it must be a pure function of the edge id for the query's
// duration.
type WeightFunc func(edgeID int) float64

// ShortestPathWS returns the minimum-weight path from src to dst under
// wf, or ok=false if dst is unreachable (or either endpoint is out of
// range), with all scratch in ws. Only the returned Path is allocated.
func (g *Graph) ShortestPathWS(ws *Workspace, src, dst int, wf WeightFunc) (Path, bool) {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		return Path{}, false
	}
	t := g.topoView()
	weights := ws.materialize(g, t, wf)
	g.dijkstra(ws, t, weights, int32(src), int32(dst))
	if !ws.visited(int32(dst)) {
		return Path{}, false
	}
	return g.tracePath(ws, src, dst), true
}

// ShortestDistanceWS returns the minimum path weight from src to dst
// under wf (ok=false if unreachable) without materializing the path.
// With a reused workspace it allocates nothing.
func (g *Graph) ShortestDistanceWS(ws *Workspace, src, dst int, wf WeightFunc) (float64, bool) {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		return math.Inf(1), false
	}
	t := g.topoView()
	weights := ws.materialize(g, t, wf)
	g.dijkstra(ws, t, weights, int32(src), int32(dst))
	if !ws.visited(int32(dst)) {
		return math.Inf(1), false
	}
	return ws.dist[dst], true
}

// ShortestDistancesWS runs Dijkstra from src and writes the full
// distance array into dst (resized as needed; nil allocates;
// unreachable vertices get +Inf). With a reused workspace and a
// caller-owned dst it is allocation-free.
func (g *Graph) ShortestDistancesWS(ws *Workspace, src int, wf WeightFunc, dst []float64) []float64 {
	t := g.topoView()
	weights := ws.materialize(g, t, wf)
	g.dijkstra(ws, t, weights, int32(src), -1)
	return ws.exportDistances(g.n, dst)
}

// exportDistances resolves the epoch-stamped distance state into a
// dense array.
func (w *Workspace) exportDistances(n int, dst []float64) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	inf := math.Inf(1)
	for i := range dst {
		if w.stamp[i] == w.epoch {
			dst[i] = w.dist[i]
		} else {
			dst[i] = inf
		}
	}
	return dst
}

// dijkstra computes shortest distances from src over the materialized
// weight table, stamping dist/parent into ws; if dst >= 0 it stops
// once dst is settled. Ties between equal-distance heap entries break
// on vertex id (see heap.go) — an explicit contract the equivalence
// suite pins.
func (g *Graph) dijkstra(ws *Workspace, t *topology, weights []float64, src, dst int32) {
	ws.begin(g.n)
	ws.stamp[src] = ws.epoch
	ws.dist[src] = 0
	ws.parent[src] = -1
	h := &ws.heap
	h.push(pqItem{v: src, dist: 0})
	for h.len() > 0 {
		it := h.pop()
		v := it.v
		if it.dist > ws.dist[v] {
			continue // stale entry
		}
		if v == dst {
			return
		}
		for _, he := range t.half[t.off[v]:t.off[v+1]] {
			w := weights[he.edge]
			if math.IsInf(w, 1) {
				continue
			}
			nd := it.dist + w
			if ws.stamp[he.to] == ws.epoch && nd >= ws.dist[he.to] {
				continue
			}
			ws.stamp[he.to] = ws.epoch
			ws.dist[he.to] = nd
			ws.parent[he.to] = he.edge
			h.push(pqItem{v: he.to, dist: nd})
		}
	}
}

// tracePath materializes the src->dst path from the workspace's
// parent-edge state: one counting walk to size the slices exactly,
// then one backward fill — no append growth, no endpoint re-walk.
func (g *Graph) tracePath(ws *Workspace, src, dst int) Path {
	hops := 0
	for v := dst; v != src; hops++ {
		e := &g.edges[ws.parent[v]]
		if e.U == v {
			v = e.V
		} else {
			v = e.U
		}
	}
	if hops == 0 {
		return Path{Nodes: []int{src}, Weight: ws.dist[dst]}
	}
	nodes := make([]int, hops+1)
	edges := make([]int, hops)
	nodes[hops] = dst
	v := dst
	for i := hops - 1; i >= 0; i-- {
		eid := ws.parent[v]
		edges[i] = int(eid)
		e := &g.edges[eid]
		if e.U == v {
			v = e.V
		} else {
			v = e.U
		}
		nodes[i] = v
	}
	return Path{Nodes: nodes, Edges: edges, Weight: ws.dist[dst]}
}

// Components returns the connected components as vertex lists, in
// ascending order of their smallest vertex.
func (g *Graph) Components() [][]int {
	n := g.n
	t := g.topoView()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	var stack []int32
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := len(out)
		comp[s] = id
		stack = append(stack[:0], int32(s))
		var members []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, int(v))
			for _, h := range t.neighbors(v) {
				if comp[h.to] == -1 {
					comp[h.to] = id
					stack = append(stack, h.to)
				}
			}
		}
		out = append(out, members)
	}
	return out
}

// MinimaxDistancesWS computes, for every vertex, the minimum over all
// paths from src of the maximum edge weight along the path (the
// bottleneck shortest path), writing into dst (resized as needed; nil
// allocates). Unreachable vertices get +Inf. The §5 shared-risk
// analyses use it with per-conduit sharing degrees as weights: the
// result is the best achievable worst-case sharing when routing from
// src.
func (g *Graph) MinimaxDistancesWS(ws *Workspace, src int, wf WeightFunc, dst []float64) []float64 {
	t := g.topoView()
	weights := ws.materialize(g, t, wf)
	ws.begin(g.n)
	ws.stamp[src] = ws.epoch
	ws.dist[src] = 0
	h := &ws.heap
	h.push(pqItem{v: int32(src), dist: 0})
	for h.len() > 0 {
		it := h.pop()
		v := it.v
		if it.dist > ws.dist[v] {
			continue
		}
		for _, he := range t.half[t.off[v]:t.off[v+1]] {
			w := weights[he.edge]
			if math.IsInf(w, 1) {
				continue
			}
			nd := math.Max(it.dist, w)
			if ws.stamp[he.to] == ws.epoch && nd >= ws.dist[he.to] {
				continue
			}
			ws.stamp[he.to] = ws.epoch
			ws.dist[he.to] = nd
			h.push(pqItem{v: he.to, dist: nd})
		}
	}
	return ws.exportDistances(g.n, dst)
}
