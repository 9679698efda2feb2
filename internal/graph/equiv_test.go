package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// equiv_test.go is the differential suite pinning the CSR kernel to a
// straightforward reference implementation: slice-of-slices adjacency,
// container/heap priority queue, weight closure called per relaxation.
// Both sides share the (dist, then vertex id) total order, which is
// the package's documented determinism contract, so every output —
// distance arrays, parent-edge path traces, Yen path sets, Brandes
// scores — must match exactly, not approximately.

// ---- reference implementation (old shape) ----

type refItem struct {
	v    int
	dist float64
}

type refPQ []refItem

func (q refPQ) Len() int { return len(q) }
func (q refPQ) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].v < q[j].v
}
func (q refPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)   { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() any     { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

type refHalf struct{ to, edge int }

// refAdjacency builds the per-vertex incidence lists in edge-insertion
// order — the order the CSR counting sort reproduces.
func refAdjacency(g *Graph) [][]refHalf {
	adj := make([][]refHalf, g.NumVertices())
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], refHalf{to: e.V, edge: id})
		if e.U != e.V {
			adj[e.V] = append(adj[e.V], refHalf{to: e.U, edge: id})
		}
	}
	return adj
}

// refDijkstra is the pre-CSR kernel: returns dense dist and parent-edge
// arrays (parent -1 where unset, +Inf where unreachable).
func refDijkstra(g *Graph, adj [][]refHalf, src int, wf WeightFunc) (dist []float64, parent []int) {
	n := g.NumVertices()
	dist = make([]float64, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	pq := &refPQ{{v: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(refItem)
		if it.dist > dist[it.v] {
			continue
		}
		for _, h := range adj[it.v] {
			w := g.weightOf(wf, h.edge)
			if math.IsInf(w, 1) {
				continue
			}
			if nd := it.dist + w; nd < dist[h.to] {
				dist[h.to] = nd
				parent[h.to] = h.edge
				heap.Push(pq, refItem{v: h.to, dist: nd})
			}
		}
	}
	return dist, parent
}

func refTracePath(g *Graph, dist []float64, parent []int, src, dst int) (Path, bool) {
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	p := Path{Nodes: []int{dst}, Weight: dist[dst]}
	for v := dst; v != src; {
		eid := parent[v]
		p.Edges = append(p.Edges, eid)
		e := g.Edge(eid)
		if e.U == v {
			v = e.V
		} else {
			v = e.U
		}
		p.Nodes = append(p.Nodes, v)
	}
	for i, j := 0, len(p.Nodes)-1; i < j; i, j = i+1, j-1 {
		p.Nodes[i], p.Nodes[j] = p.Nodes[j], p.Nodes[i]
	}
	for i, j := 0, len(p.Edges)-1; i < j; i, j = i+1, j-1 {
		p.Edges[i], p.Edges[j] = p.Edges[j], p.Edges[i]
	}
	if len(p.Edges) == 0 {
		p.Edges = nil
	}
	return p, true
}

// refKShortest is Yen's algorithm in its pre-workspace formulation:
// banned nodes and deviation edges held in per-spur maps, exclusion by
// endpoint test inside a wrapping weight closure.
func refKShortest(g *Graph, adj [][]refHalf, src, dst, k int, wf WeightFunc) []Path {
	if k <= 0 || src < 0 || src >= g.NumVertices() || dst < 0 || dst >= g.NumVertices() {
		return nil
	}
	dist, parent := refDijkstra(g, adj, src, wf)
	first, ok := refTracePath(g, dist, parent, src, dst)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spur := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootEdges := prev.Edges[:i]
			bannedNodes := make(map[int]bool)
			for _, v := range rootNodes[:len(rootNodes)-1] {
				bannedNodes[v] = true
			}
			bannedEdges := make(map[int]bool)
			for _, p := range paths {
				if sameIntPrefix(p.Nodes, rootNodes) && len(p.Edges) > i {
					bannedEdges[p.Edges[i]] = true
				}
			}
			for _, p := range candidates {
				if sameIntPrefix(p.Nodes, rootNodes) && len(p.Edges) > i {
					bannedEdges[p.Edges[i]] = true
				}
			}
			spurWF := func(eid int) float64 {
				if bannedEdges[eid] {
					return math.Inf(1)
				}
				e := g.Edge(eid)
				if bannedNodes[e.U] || bannedNodes[e.V] {
					return math.Inf(1)
				}
				return g.weightOf(wf, eid)
			}
			sd, sp := refDijkstra(g, adj, spur, spurWF)
			spurPath, ok := refTracePath(g, sd, sp, spur, dst)
			if !ok {
				continue
			}
			nodes := append(append([]int{}, rootNodes...), spurPath.Nodes[1:]...)
			edges := append(append([]int{}, rootEdges...), spurPath.Edges...)
			var w float64
			for _, eid := range edges {
				w += g.weightOf(wf, eid)
			}
			total := Path{Nodes: nodes, Edges: edges, Weight: w}
			if pathKnown(paths, total) || pathKnown(candidates, total) {
				continue
			}
			candidates = append(candidates, total)
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			return candidates[a].Weight < candidates[b].Weight
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

// refEdgeBetweenness is Brandes with container/heap and per-source
// allocated scratch, epsilon branches identical to the kernel's.
func refEdgeBetweenness(g *Graph, adj [][]refHalf, wf WeightFunc) []float64 {
	n := g.NumVertices()
	out := make([]float64, g.NumEdges())
	for s := 0; s < n; s++ {
		dist := make([]float64, n)
		sigma := make([]float64, n)
		delta := make([]float64, n)
		preds := make([][]refHalf, n)
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[s] = 0
		sigma[s] = 1
		var order []int
		pq := &refPQ{{v: s, dist: 0}}
		for pq.Len() > 0 {
			it := heap.Pop(pq).(refItem)
			v := it.v
			if it.dist > dist[v] {
				continue
			}
			order = append(order, v)
			for _, h := range adj[v] {
				w := g.weightOf(wf, h.edge)
				if math.IsInf(w, 1) {
					continue
				}
				nd := dist[v] + w
				switch {
				case nd < dist[h.to]-1e-12:
					dist[h.to] = nd
					sigma[h.to] = sigma[v]
					preds[h.to] = append(preds[h.to][:0], refHalf{to: v, edge: h.edge})
					heap.Push(pq, refItem{v: h.to, dist: nd})
				case math.Abs(nd-dist[h.to]) <= 1e-12:
					sigma[h.to] += sigma[v]
					preds[h.to] = append(preds[h.to], refHalf{to: v, edge: h.edge})
				}
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			for _, ph := range preds[w] {
				c := sigma[ph.to] / sigma[w] * (1 + delta[w])
				out[ph.edge] += c
				delta[ph.to] += c
			}
		}
	}
	return out
}

// ---- randomized multigraphs ----

// randomMultigraph builds a graph with parallel edges, self-loops, and
// small integer weights — integer weights force genuine distance ties,
// the case where tie-breaking discipline matters.
func randomMultigraph(rng *rand.Rand) *Graph {
	n := 2 + rng.Intn(24)
	g := New(n)
	m := rng.Intn(4 * n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(20) != 0 && u == v {
			v = (v + 1) % n // keep self-loops rare but present
		}
		g.AddEdge(u, v, float64(1+rng.Intn(6)))
	}
	return g
}

// maskWF drops every 7th edge (exercises +Inf exclusion) and otherwise
// perturbs default weights deterministically.
func maskWF(g *Graph) WeightFunc {
	return func(eid int) float64 {
		if eid%7 == 3 {
			return math.Inf(1)
		}
		return g.Edge(eid).Weight + float64(eid%3)
	}
}

func equalPaths(a, b Path) bool {
	return a.Weight == b.Weight && equalIntSlices(a.Nodes, b.Nodes) && equalIntSlices(a.Edges, b.Edges)
}

func TestDijkstraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := NewWorkspace()
	for trial := 0; trial < 300; trial++ {
		g := randomMultigraph(rng)
		adj := refAdjacency(g)
		var wf WeightFunc
		if trial%2 == 1 {
			wf = maskWF(g)
		}
		src := rng.Intn(g.NumVertices())
		wantDist, wantParent := refDijkstra(g, adj, src, wf)

		got := g.ShortestDistancesWS(ws, src, wf, nil)
		for v := range wantDist {
			if got[v] != wantDist[v] {
				t.Fatalf("trial %d: dist[%d] = %v, want %v", trial, v, got[v], wantDist[v])
			}
		}
		for dst := 0; dst < g.NumVertices(); dst++ {
			wantPath, wantOK := refTracePath(g, wantDist, wantParent, src, dst)
			gotPath, gotOK := g.ShortestPathWS(ws, src, dst, wf)
			if gotOK != wantOK {
				t.Fatalf("trial %d: ShortestPath(%d,%d) ok=%v, want %v", trial, src, dst, gotOK, wantOK)
			}
			if gotOK && !equalPaths(gotPath, wantPath) {
				t.Fatalf("trial %d: ShortestPath(%d,%d)\n got %+v\nwant %+v", trial, src, dst, gotPath, wantPath)
			}
		}
	}
}

func TestKShortestPathsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		g := randomMultigraph(rng)
		adj := refAdjacency(g)
		var wf WeightFunc
		if trial%3 == 2 {
			wf = maskWF(g)
		}
		src, dst := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
		k := 1 + rng.Intn(5)
		want := refKShortest(g, adj, src, dst, k, wf)
		got := g.KShortestPaths(src, dst, k, wf)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d paths, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !equalPaths(got[i], want[i]) {
				t.Fatalf("trial %d: path %d\n got %+v\nwant %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestEdgeBetweennessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		g := randomMultigraph(rng)
		adj := refAdjacency(g)
		var wf WeightFunc
		if trial%2 == 1 {
			wf = maskWF(g)
		}
		want := refEdgeBetweenness(g, adj, wf)
		got := g.EdgeBetweenness(wf)
		for e := range want {
			// Same settle order, same accumulation order — bit identical.
			if got[e] != want[e] {
				t.Fatalf("trial %d: betweenness[%d] = %v, want %v", trial, e, got[e], want[e])
			}
		}
	}
}

// TestWorkspaceReuseMatchesFresh pins that a workspace carried across
// many queries (including epoch reuse over different graphs) never
// leaks state between queries.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ws := NewWorkspace()
	for trial := 0; trial < 150; trial++ {
		g := randomMultigraph(rng)
		src := rng.Intn(g.NumVertices())
		want := g.ShortestDistancesWS(NewWorkspace(), src, nil, nil)
		got := g.ShortestDistancesWS(ws, src, nil, nil)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: reused ws dist[%d] = %v, want %v", trial, v, got[v], want[v])
			}
		}
	}
}

// TestWorkspaceEpochWrap forces the uint32 epoch counter through its
// wrap-around and checks queries stay correct on both sides.
func TestWorkspaceEpochWrap(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	ws := NewWorkspace()
	check := func() {
		t.Helper()
		d := g.ShortestDistancesWS(ws, 0, nil, nil)
		if d[0] != 0 || d[1] != 1 || d[2] != 2 {
			t.Fatalf("dist after epoch %d = %v", ws.epoch, d)
		}
	}
	check()
	ws.epoch = math.MaxUint32 - 1
	check() // runs at MaxUint32
	check() // wraps: stamps cleared, epoch restarts at 1
	if ws.epoch == 0 || ws.epoch > 2 {
		t.Fatalf("epoch after wrap = %d, want 1 or 2", ws.epoch)
	}
	check()
}

// TestMinimaxMatchesBruteforce pins MinimaxDistances against a simple
// Bellman-Ford-style relaxation of the bottleneck objective.
func TestMinimaxMatchesBruteforce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 80; trial++ {
		g := randomMultigraph(rng)
		n := g.NumVertices()
		src := rng.Intn(n)
		want := make([]float64, n)
		for i := range want {
			want[i] = math.Inf(1)
		}
		want[src] = 0
		for iter := 0; iter < n; iter++ {
			changed := false
			for id := 0; id < g.NumEdges(); id++ {
				e := g.Edge(id)
				if nd := math.Max(want[e.U], e.Weight); nd < want[e.V] {
					want[e.V] = nd
					changed = true
				}
				if nd := math.Max(want[e.V], e.Weight); nd < want[e.U] {
					want[e.U] = nd
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		got := g.MinimaxDistancesWS(NewWorkspace(), src, nil, nil)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: minimax[%d] = %v, want %v", trial, v, got[v], want[v])
			}
		}
	}
}

// TestHeapPopIsSortedOrder is the heap's total-order property under
// testing/quick: pops must come out exactly as sort by (dist, v).
func TestHeapPopIsSortedOrder(t *testing.T) {
	prop := func(dists []float64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h heap4
		items := make([]pqItem, 0, len(dists))
		for i, d := range dists {
			if math.IsNaN(d) {
				d = float64(i) // NaN has no total order; substitute
			}
			items = append(items, pqItem{v: int32(rng.Intn(64)), dist: d})
		}
		for _, it := range items {
			h.push(it)
		}
		sort.SliceStable(items, func(a, b int) bool { return pqLess(items[a], items[b]) })
		for _, want := range items {
			// (dist, v) is a total order and exact duplicates are
			// value-identical, so pop order is fully determined.
			if h.pop() != want {
				return false
			}
		}
		return h.len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzHeapOrdering feeds arbitrary push/pop scripts to the 4-ary heap
// and cross-checks every pop against a sorted reference multiset.
func FuzzHeapOrdering(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4, 0, 0})
	f.Add([]byte{0})
	f.Add([]byte{9, 9, 9, 9, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		var h heap4
		var ref []pqItem
		for i, b := range script {
			if b == 0 { // pop
				if len(ref) == 0 {
					if h.len() != 0 {
						t.Fatalf("heap has %d items, reference empty", h.len())
					}
					continue
				}
				best := 0
				for j := 1; j < len(ref); j++ {
					if pqLess(ref[j], ref[best]) {
						best = j
					}
				}
				want := ref[best]
				ref = append(ref[:best], ref[best+1:]...)
				got := h.pop()
				if got.dist != want.dist || got.v != want.v {
					t.Fatalf("op %d: pop = %+v, want %+v", i, got, want)
				}
				continue
			}
			it := pqItem{v: int32(b % 32), dist: float64(b >> 3)}
			h.push(it)
			ref = append(ref, it)
		}
		if h.len() != len(ref) {
			t.Fatalf("final size %d, want %d", h.len(), len(ref))
		}
	})
}
