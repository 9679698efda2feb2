package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildDiamond creates:
//
//	0 --1-- 1 --1-- 3
//	 \--1-- 2 --3--/
//
// plus an isolated vertex 4.
func buildDiamond() *Graph {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 3)
	return g
}

func TestShortestPathBasic(t *testing.T) {
	g := buildDiamond()
	p, ok := g.ShortestPathWS(NewWorkspace(), 0, 3, nil)
	if !ok {
		t.Fatal("no path")
	}
	if p.Weight != 2 || p.Hops() != 2 {
		t.Errorf("weight=%v hops=%d, want 2,2", p.Weight, p.Hops())
	}
	wantNodes := []int{0, 1, 3}
	if !equalIntSlices(p.Nodes, wantNodes) {
		t.Errorf("nodes=%v want %v", p.Nodes, wantNodes)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := buildDiamond()
	if _, ok := g.ShortestPathWS(NewWorkspace(), 0, 4, nil); ok {
		t.Error("vertex 4 must be unreachable")
	}
	if _, ok := g.ShortestPathWS(NewWorkspace(), -1, 2, nil); ok {
		t.Error("out-of-range src must fail")
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := buildDiamond()
	p, ok := g.ShortestPathWS(NewWorkspace(), 2, 2, nil)
	if !ok || p.Hops() != 0 || p.Weight != 0 {
		t.Errorf("self path = %+v, %v", p, ok)
	}
}

func TestWeightFuncOverridesAndBans(t *testing.T) {
	g := buildDiamond()
	// Ban edge 0 (0-1); path must go through 2.
	p, ok := g.ShortestPathWS(NewWorkspace(), 0, 3, func(eid int) float64 {
		if eid == 0 {
			return math.Inf(1)
		}
		return g.Edge(eid).Weight
	})
	if !ok {
		t.Fatal("no path with ban")
	}
	if !equalIntSlices(p.Nodes, []int{0, 2, 3}) {
		t.Errorf("nodes=%v", p.Nodes)
	}
	if p.Weight != 4 {
		t.Errorf("weight=%v want 4", p.Weight)
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	slow := g.AddEdge(0, 1, 10)
	fast := g.AddEdge(0, 1, 2)
	p, ok := g.ShortestPathWS(NewWorkspace(), 0, 1, nil)
	if !ok || p.Edges[0] != fast {
		t.Errorf("should pick the fast parallel edge, got %+v", p)
	}
	// Yen should return both parallel edges as distinct paths.
	ps := g.KShortestPaths(0, 1, 3, nil)
	if len(ps) != 2 {
		t.Fatalf("k-shortest over parallel edges = %d paths, want 2", len(ps))
	}
	if ps[0].Edges[0] != fast || ps[1].Edges[0] != slow {
		t.Errorf("order wrong: %+v", ps)
	}
}

func TestShortestDistances(t *testing.T) {
	g := buildDiamond()
	dist := g.ShortestDistancesWS(NewWorkspace(), 0, nil, nil)
	want := []float64{0, 1, 1, 2, math.Inf(1)}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("dist[%d]=%v want %v", i, dist[i], w)
		}
	}
}

func TestComponents(t *testing.T) {
	g := buildDiamond()
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0]) != 4 || len(comps[1]) != 1 {
		t.Errorf("sizes = %d,%d", len(comps[0]), len(comps[1]))
	}
	if comps[1][0] != 4 {
		t.Errorf("isolated component = %v, want [4]", comps[1])
	}
}

func TestAddVertex(t *testing.T) {
	g := New(0)
	a := g.AddVertex()
	b := g.AddVertex()
	g.AddEdge(a, b, 5)
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Errorf("counts = %d,%d", g.NumVertices(), g.NumEdges())
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	mustPanic(t, func() { g.AddEdge(0, 5, 1) })
	mustPanic(t, func() { g.AddEdge(0, 1, -1) })
	mustPanic(t, func() { g.AddEdge(0, 1, math.NaN()) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestNeighbors(t *testing.T) {
	g := buildDiamond()
	var tos []int
	g.Neighbors(0, func(to, eid int) { tos = append(tos, to) })
	if len(tos) != 2 {
		t.Errorf("neighbors of 0 = %v", tos)
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	g := buildDiamond()
	ps := g.KShortestPaths(0, 3, 5, nil)
	if len(ps) != 2 {
		t.Fatalf("got %d paths, want 2", len(ps))
	}
	if ps[0].Weight != 2 || ps[1].Weight != 4 {
		t.Errorf("weights = %v, %v", ps[0].Weight, ps[1].Weight)
	}
	// Paths must be loopless.
	for _, p := range ps {
		seen := map[int]bool{}
		for _, v := range p.Nodes {
			if seen[v] {
				t.Errorf("path %v revisits %d", p.Nodes, v)
			}
			seen[v] = true
		}
	}
}

func TestKShortestPathsGrid(t *testing.T) {
	// 3x3 grid; many equal-cost paths.
	g := New(9)
	at := func(r, c int) int { return r*3 + c }
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if c+1 < 3 {
				g.AddEdge(at(r, c), at(r, c+1), 1)
			}
			if r+1 < 3 {
				g.AddEdge(at(r, c), at(r+1, c), 1)
			}
		}
	}
	ps := g.KShortestPaths(at(0, 0), at(2, 2), 6, nil)
	if len(ps) != 6 {
		t.Fatalf("got %d paths, want 6 (all monotone grid paths)", len(ps))
	}
	for _, p := range ps {
		if p.Weight != 4 {
			t.Errorf("path weight %v, want 4 for first six", p.Weight)
		}
	}
	// Distinct edge sequences.
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if equalIntSlices(ps[i].Edges, ps[j].Edges) {
				t.Errorf("paths %d and %d identical", i, j)
			}
		}
	}
}

func TestKShortestNoPath(t *testing.T) {
	g := buildDiamond()
	if ps := g.KShortestPaths(0, 4, 3, nil); ps != nil {
		t.Errorf("expected nil, got %v", ps)
	}
	if ps := g.KShortestPaths(0, 3, 0, nil); ps != nil {
		t.Errorf("k<=0 should yield nil, got %v", ps)
	}
}

// Property: on random connected graphs, Dijkstra's distance equals
// Bellman-Ford's distance.
func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		g := New(n)
		// Random spanning tree plus extras.
		for v := 1; v < n; v++ {
			g.AddEdge(rng.Intn(v), v, rng.Float64()*10)
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()*10)
		}
		src := rng.Intn(n)
		got := g.ShortestDistancesWS(NewWorkspace(), src, nil, nil)
		want := bellmanFord(g, src)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("trial %d: dist[%d]=%v want %v", trial, v, got[v], want[v])
			}
		}
	}
}

func bellmanFord(g *Graph, src int) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for eid := 0; eid < g.NumEdges(); eid++ {
			e := g.Edge(eid)
			if dist[e.U]+e.Weight < dist[e.V] {
				dist[e.V] = dist[e.U] + e.Weight
				changed = true
			}
			if dist[e.V]+e.Weight < dist[e.U] {
				dist[e.U] = dist[e.V] + e.Weight
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// Property: k-shortest path weights are non-decreasing and all paths
// are loopless, on random graphs.
func TestKShortestProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(12)
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(rng.Intn(v), v, 1+rng.Float64()*5)
		}
		for i := 0; i < n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64()*5)
		}
		ps := g.KShortestPaths(0, n-1, 5, nil)
		for i := 1; i < len(ps); i++ {
			if ps[i].Weight < ps[i-1].Weight-1e-9 {
				t.Fatalf("trial %d: weights decrease: %v then %v", trial, ps[i-1].Weight, ps[i].Weight)
			}
		}
		for _, p := range ps {
			seen := map[int]bool{}
			for _, v := range p.Nodes {
				if seen[v] {
					t.Fatalf("trial %d: loop in %v", trial, p.Nodes)
				}
				seen[v] = true
			}
			// Edge sequence must actually connect the node sequence.
			for i, eid := range p.Edges {
				e := g.Edge(eid)
				a, b := p.Nodes[i], p.Nodes[i+1]
				if !((e.U == a && e.V == b) || (e.U == b && e.V == a)) {
					t.Fatalf("trial %d: edge %d does not connect %d-%d", trial, eid, a, b)
				}
			}
		}
	}
}

func TestPathClone(t *testing.T) {
	p := Path{Nodes: []int{1, 2}, Edges: []int{0}, Weight: 3}
	q := p.Clone()
	q.Nodes[0] = 9
	if p.Nodes[0] != 1 {
		t.Error("clone must not share backing arrays")
	}
}

func TestWeightFuncNilUsesDefault(t *testing.T) {
	if err := quick.Check(func(w uint8) bool {
		g := New(2)
		g.AddEdge(0, 1, float64(w))
		p, ok := g.ShortestPathWS(NewWorkspace(), 0, 1, nil)
		return ok && p.Weight == float64(w)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMinimaxDistances(t *testing.T) {
	// Two routes 0->3: via 1 with max weight 9, via 2 with max 4.
	g := New(4)
	g.AddEdge(0, 1, 9)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 4)
	g.AddEdge(2, 3, 3)
	d := g.MinimaxDistancesWS(NewWorkspace(), 0, nil, nil)
	if d[3] != 4 {
		t.Errorf("minimax to 3 = %v, want 4 (via vertex 2)", d[3])
	}
	if d[0] != 0 {
		t.Errorf("self = %v", d[0])
	}
	// Banned edges exclude routes.
	banned := func(eid int) float64 {
		if g.Edge(eid).U == 0 && g.Edge(eid).V == 2 {
			return math.Inf(1)
		}
		return g.Edge(eid).Weight
	}
	d = g.MinimaxDistancesWS(NewWorkspace(), 0, banned, nil)
	if d[3] != 9 {
		t.Errorf("minimax with ban = %v, want 9", d[3])
	}
}

func TestMinimaxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(rng.Intn(v), v, float64(1+rng.Intn(9)))
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, float64(1+rng.Intn(9)))
			}
		}
		got := g.MinimaxDistancesWS(NewWorkspace(), 0, nil, nil)
		// Brute force via repeated relaxation.
		want := make([]float64, n)
		for i := range want {
			want[i] = math.Inf(1)
		}
		want[0] = 0
		for iter := 0; iter < n+1; iter++ {
			for eid := 0; eid < g.NumEdges(); eid++ {
				e := g.Edge(eid)
				if m := math.Max(want[e.U], e.Weight); m < want[e.V] {
					want[e.V] = m
				}
				if m := math.Max(want[e.V], e.Weight); m < want[e.U] {
					want[e.U] = m
				}
			}
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: minimax[%d] = %v, want %v", trial, v, got[v], want[v])
			}
		}
	}
}
