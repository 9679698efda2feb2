package graph

import (
	"math"
	"sync"
)

// workspace.go holds the reusable per-query scratch state of the
// compute kernel. Every Dijkstra-family query needs a distance array,
// a parent-edge array, heap storage, and (for Yen and Brandes) a few
// more scratch slices; allocating them per call dominated the alloc
// profile of the analysis sweeps. A Workspace owns all of it and is
// reused across queries: the parallel sweeps keep one workspace per
// worker per run, and the two non-workspace entry points
// (KShortestPaths, EdgeBetweenness) borrow one from a package pool.
//
// Re-initialization between runs is O(touched), not O(n): instead of
// clearing the distance array, every write stamps the vertex with the
// workspace's current epoch, and a read treats a stale stamp as
// "unvisited" (+Inf distance, -1 parent). begin() bumps the epoch,
// which invalidates the whole previous run in O(1).

// Workspace is reusable scratch memory for the graph algorithms. It
// is sized lazily to the graphs it is used with, may be shared across
// graphs of different sizes, and must not be used concurrently: give
// each goroutine its own (see par's per-worker state helpers).
//
// The zero value is not ready; use NewWorkspace.
type Workspace struct {
	// Dijkstra state, epoch-stamped per vertex.
	dist   []float64
	parent []int32
	stamp  []uint32
	epoch  uint32
	heap   heap4

	// Materialized per-sweep weight table (one wf call per edge, so
	// the relaxation loop indexes an array instead of calling a
	// closure per edge visit).
	weights []float64
	// Yen scratch: a mutable copy of the base table carrying the
	// spur-iteration exclusion masks.
	spurWeights []float64

	// Brandes (edge betweenness) scratch, epoch-stamped alongside
	// dist: sigma counts shortest paths, delta accumulates
	// dependencies, order records settle order, preds the shortest-
	// path DAG into each vertex.
	sigma []float64
	delta []float64
	order []int32
	preds [][]halfEdge

	// Stoer-Wagner (GlobalMinCutWS) scratch, grown lazily on first
	// min-cut query.
	mc *mincutScratch

	// Dinic (MaxFlowWS) scratch, grown lazily on first max-flow
	// query.
	mf *maxflowScratch

	// Source of the last ShortestTreeWS run; TreePathWS traces against
	// it. -1 until a tree query has run.
	treeSrc int32

	// Min-cut path counters: queries resolved by the unit-weight
	// bridge-DFS fast path vs the full Stoer-Wagner phase loop. The
	// workspace is single-goroutine, so plain increments suffice;
	// callers read deltas around a batch via MinCutStats.
	mcFast uint64
	mcFull uint64
}

// MinCutStats reports how many GlobalMinCutWS queries on this
// workspace were resolved by the unit-weight fast path and how many
// fell through to the full Stoer-Wagner phase loop.
func (w *Workspace) MinCutStats() (fastPath, stoerWagner uint64) {
	return w.mcFast, w.mcFull
}

// NewWorkspace returns an empty workspace; it grows to fit the first
// graph it is used with.
func NewWorkspace() *Workspace {
	return &Workspace{treeSrc: -1}
}

// begin starts a new query over a graph with n vertices: it grows the
// per-vertex arrays if needed and invalidates all previous stamps by
// bumping the epoch.
func (w *Workspace) begin(n int) {
	if len(w.stamp) < n {
		w.dist = append(w.dist, make([]float64, n-len(w.dist))...)
		w.parent = append(w.parent, make([]int32, n-len(w.parent))...)
		w.stamp = append(w.stamp, make([]uint32, n-len(w.stamp))...)
	}
	w.epoch++
	if w.epoch == 0 {
		// Epoch counter wrapped: stale stamps from 2^32 runs ago could
		// alias. Clear once and restart at 1 (0 means "never stamped").
		for i := range w.stamp {
			w.stamp[i] = 0
		}
		w.epoch = 1
	}
	w.heap.reset()
}

// beginBrandes is begin plus the Brandes scratch arrays.
func (w *Workspace) beginBrandes(n int) {
	w.begin(n)
	if len(w.sigma) < n {
		w.sigma = append(w.sigma, make([]float64, n-len(w.sigma))...)
		w.delta = append(w.delta, make([]float64, n-len(w.delta))...)
		w.preds = append(w.preds, make([][]halfEdge, n-len(w.preds))...)
	}
	w.order = w.order[:0]
}

// visited reports whether v was reached in the current query.
func (w *Workspace) visited(v int32) bool { return w.stamp[v] == w.epoch }

// distAt returns v's distance in the current query (+Inf when
// unreached).
func (w *Workspace) distAt(v int32) float64 {
	if w.stamp[v] != w.epoch {
		return math.Inf(1)
	}
	return w.dist[v]
}

// materialize returns the weight table for one sweep under wf: dst[e]
// = wf(e) for every edge id. A nil wf uses the graph's cached default
// table (shared and read-only — copy before mutating). The table is
// valid until the workspace's next materialize call or the graph's
// next mutation.
func (w *Workspace) materialize(g *Graph, t *topology, wf WeightFunc) []float64 {
	if wf == nil {
		return t.defWeights
	}
	ne := len(g.edges)
	if cap(w.weights) < ne {
		w.weights = make([]float64, ne)
	}
	w.weights = w.weights[:ne]
	for i := range w.weights {
		w.weights[i] = wf(i)
	}
	return w.weights
}

// spurTable returns the Yen scratch table, sized to the graph.
func (w *Workspace) spurTable(ne int) []float64 {
	if cap(w.spurWeights) < ne {
		w.spurWeights = make([]float64, ne)
	}
	w.spurWeights = w.spurWeights[:ne]
	return w.spurWeights
}

// wsPool backs the non-workspace entry points, so their callers still
// amortize scratch state across calls.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

func getWS() *Workspace  { return wsPool.Get().(*Workspace) }
func putWS(w *Workspace) { wsPool.Put(w) }
