package graph

import "math"

// mincut_dense_test.go keeps the textbook dense Stoer-Wagner global
// minimum cut (O(V²) matrix, O(V³) phases) as the test oracle the
// sparse workspace kernel GlobalMinCutWS is compared against.

// GlobalMinCut returns the weight of the minimum cut of the graph
// restricted to the given vertices, under wf (edges with +Inf weight
// are ignored; the remaining edge weights are summed across parallel
// edges). It returns ok=false when fewer than two usable vertices
// remain or the restriction is disconnected (min cut 0 is then
// returned with ok=true only for the connected case).
//
// With unit edge weights the result is the minimum number of edges
// (conduits) whose removal disconnects the vertex set.
func (g *Graph) GlobalMinCut(vertices []int, wf WeightFunc) (float64, bool) {
	// Build a dense weight matrix over the selected vertices.
	n := len(vertices)
	if n < 2 {
		return 0, false
	}
	idx := make(map[int]int, n)
	for i, v := range vertices {
		idx[v] = i
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for eid := range g.edges {
		cost := g.weightOf(wf, eid)
		if math.IsInf(cost, 1) {
			continue
		}
		e := g.edges[eid]
		i, iok := idx[e.U]
		j, jok := idx[e.V]
		if !iok || !jok || i == j {
			continue
		}
		w[i][j] += cost
		w[j][i] += cost
	}

	// Disconnected restrictions have a trivial zero cut.
	if !denseConnected(w) {
		return 0, true
	}

	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	best := math.Inf(1)
	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase).
		inA := make([]bool, n)
		weights := make([]float64, n)
		prev, last := -1, -1
		for step := 0; step < len(active); step++ {
			sel := -1
			for _, v := range active {
				if !inA[v] && (sel == -1 || weights[v] > weights[sel]) {
					sel = v
				}
			}
			inA[sel] = true
			prev, last = last, sel
			for _, v := range active {
				if !inA[v] {
					weights[v] += w[sel][v]
				}
			}
		}
		// Cut-of-the-phase: weight of `last` against the rest.
		if weights[last] < best {
			best = weights[last]
		}
		// Merge last into prev.
		for _, v := range active {
			if v != last && v != prev {
				w[prev][v] += w[last][v]
				w[v][prev] = w[prev][v]
			}
		}
		// Remove last from active.
		out := active[:0]
		for _, v := range active {
			if v != last {
				out = append(out, v)
			}
		}
		active = out
	}
	return best, true
}

// denseConnected reports whether the dense weight matrix describes a
// connected graph (positive weights as edges).
func denseConnected(w [][]float64) bool {
	n := len(w)
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for u := 0; u < n; u++ {
			if !seen[u] && w[v][u] > 0 {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == n
}

// weightOf is the per-query weight closure rule the reference
// implementations apply edge by edge: nil wf means the default weight.
func (g *Graph) weightOf(wf WeightFunc, id int) float64 {
	if wf == nil {
		return g.edges[id].Weight
	}
	return wf(id)
}
