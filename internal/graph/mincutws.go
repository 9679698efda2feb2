package graph

import "math"

// mincutws.go implements the Stoer-Wagner global minimum cut, used to
// answer the paper's motivating security question: how many conduit
// cuts would it take to partition a backbone? The scenario engine asks
// it for thousands of perturbed topologies per sweep, so the kernel
// keeps the base CSR shared and immutable: the caller materializes one
// weight table per query (a flat copy of a cached base table plus +Inf
// masks, the same trick Yen's spur loop uses) and overlay edges that
// do not exist in the base graph ride along as an explicit extra list.
// All scratch lives in the Workspace.
//
// The implementation is Stoer-Wagner over union-find supervertices
// with lazy-heap maximum-adjacency phases: O(V·E·log V) instead of the
// textbook dense O(V³). Any maximum-adjacency ordering yields the
// exact global minimum cut, and the minimum-cut *value* of a graph is
// unique, so the result equals the dense kernel's (kept as a test
// oracle in mincut_dense_test.go) bit for bit whenever edge-weight
// sums are exactly representable (unit weights, the scenario case).

// mincutScratch is the reusable state of GlobalMinCutWS, owned by a
// Workspace and grown lazily.
type mincutScratch struct {
	local  []int32 // vertex id -> local index, -1 when not selected
	arcOff []int32 // CSR offsets over local vertices
	arcTo  []int32
	arcW   []float64
	arcEid []int32  // staged-edge id per arc (twin halves share one)
	halfs  []mcHalf // arc staging before the counting sort
	parent []int32  // union-find over local supervertices
	head   []int32  // supervertex member-list head (local index)
	next   []int32  // member-list links
	tail   []int32
	key    []float64 // MA-phase accumulated adjacency
	mark   []uint8   // 0 free, 1 in A, 2 seen this phase
	alive  []bool
	// Unit-weight λ≤1 fast path: iterative bridge-DFS state.
	dfsStk  []int32
	dfsDisc []int32
	dfsLow  []int32
	dfsCur  []int32
	dfsEid  []int32 // eid of the tree arc into each vertex
}

type mcHalf struct {
	from, to int32
	w        float64
	eid      int32
}

// mincut returns the workspace's min-cut scratch, allocating it on
// first use.
func (w *Workspace) mincut() *mincutScratch {
	if w.mc == nil {
		w.mc = &mincutScratch{}
	}
	return w.mc
}

// GlobalMinCutWS returns the weight of the minimum cut of the graph
// restricted to the given vertices, with all scratch in ws and the
// query's edge weights supplied as data:
//
//   - weights[eid] is the traversal cost of base edge eid (+Inf or 0
//     excludes it);
//   - extra lists overlay edges absent from the base graph (new
//     conduit builds); their Weight fields are used directly.
//
// Parallel edges sum. Fewer than two selected vertices returns
// (0, false) and a disconnected restriction returns (0, true). With
// unit edge weights the result is the minimum number of edges
// (conduits) whose removal disconnects the vertex set.
func (g *Graph) GlobalMinCutWS(ws *Workspace, vertices []int, weights []float64, extra []Edge) (float64, bool) {
	n := len(vertices)
	if n < 2 {
		return 0, false
	}
	mc := ws.mincut()

	// Map selected vertices to a compact local index space.
	if len(mc.local) < g.n {
		mc.local = append(mc.local, make([]int32, g.n-len(mc.local))...)
	}
	local := mc.local[:g.n]
	for i := range local {
		local[i] = -1
	}
	for i, v := range vertices {
		if v >= 0 && v < g.n {
			local[v] = int32(i)
		}
	}

	// Stage usable arcs (both directions) and build a combined CSR
	// adjacency with a counting sort, merging parallel edges so each
	// (u,v) pair appears once per direction. Merging keeps phase heap
	// traffic proportional to distinct neighbors.
	mc.halfs = mc.halfs[:0]
	allUnit := true
	stage := func(u, v int, w float64) {
		if w <= 0 || math.IsInf(w, 1) || math.IsNaN(w) {
			return
		}
		if u < 0 || u >= g.n || v < 0 || v >= g.n {
			return
		}
		lu, lv := local[u], local[v]
		if lu < 0 || lv < 0 || lu == lv {
			return
		}
		if w != 1 {
			allUnit = false
		}
		eid := int32(len(mc.halfs) / 2)
		mc.halfs = append(mc.halfs,
			mcHalf{from: lu, to: lv, w: w, eid: eid},
			mcHalf{from: lv, to: lu, w: w, eid: eid})
	}
	for eid := range g.edges {
		e := &g.edges[eid]
		stage(e.U, e.V, weights[eid])
	}
	for i := range extra {
		e := &extra[i]
		stage(e.U, e.V, e.Weight)
	}

	if cap(mc.arcOff) < n+1 {
		mc.arcOff = make([]int32, n+1)
	}
	off := mc.arcOff[:n+1]
	for i := range off {
		off[i] = 0
	}
	for _, h := range mc.halfs {
		off[h.from+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	na := len(mc.halfs)
	if cap(mc.arcTo) < na {
		mc.arcTo = make([]int32, na)
		mc.arcW = make([]float64, na)
		mc.arcEid = make([]int32, na)
	}
	arcTo, arcW, arcEid := mc.arcTo[:na], mc.arcW[:na], mc.arcEid[:na]
	// Fill per-vertex runs; the cursor borrows the tail array, which is
	// not needed for member lists until after the sort.
	if cap(mc.tail) < n {
		mc.tail = make([]int32, n)
	}
	cur := mc.tail[:n]
	copy(cur, off[:n])
	for _, h := range mc.halfs {
		arcTo[cur[h.from]] = h.to
		arcW[cur[h.from]] = h.w
		arcEid[cur[h.from]] = h.eid
		cur[h.from]++
	}

	// Unit-weight fast path: with every usable arc weighing exactly 1,
	// the cut value is integral and λ ∈ {0, 1} — the overlay sweep's
	// common case — is decidable in O(V+E) by one DFS: an unreachable
	// selected vertex means a disconnected restriction (cut 0, exactly
	// what the phase loop below reports), and a bridge in the
	// multigraph means λ = 1 (unique minimum-cut value, so the answer
	// is bit-identical to Stoer-Wagner's). Anything 2-edge-connected
	// falls through to the full phase loop.
	if allUnit {
		if v, ok := mc.unitCutLE1(n, off, arcTo, arcEid); ok {
			ws.mcFast++
			return v, true
		}
	}
	ws.mcFull++

	// Union-find supervertices with member lists.
	grow := func(p []int32) []int32 {
		if cap(p) < n {
			return make([]int32, n)
		}
		return p[:n]
	}
	mc.parent = grow(mc.parent)
	mc.head = grow(mc.head)
	mc.next = grow(mc.next)
	mc.tail = grow(mc.tail)
	if cap(mc.key) < n {
		mc.key = make([]float64, n)
	}
	if cap(mc.mark) < n {
		mc.mark = make([]uint8, n)
	}
	if cap(mc.alive) < n {
		mc.alive = make([]bool, n)
	}
	parent, head, next, tail := mc.parent, mc.head[:n], mc.next[:n], mc.tail[:n]
	key, mark, alive := mc.key[:n], mc.mark[:n], mc.alive[:n]
	for i := 0; i < n; i++ {
		parent[i] = int32(i)
		head[i], tail[i] = int32(i), int32(i)
		next[i] = -1
		alive[i] = true
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	h := &ws.heap
	best := math.Inf(1)
	for remaining := n; remaining > 1; remaining-- {
		// Maximum-adjacency phase over alive supervertices, seeded at
		// the lowest-indexed alive root. key[] accumulates adjacency to
		// the growing set A; the lazy heap orders by -key so stale
		// entries are skipped on pop.
		for i := 0; i < n; i++ {
			key[i] = 0
			if alive[i] {
				mark[i] = 0
			} else {
				mark[i] = 1 // dead: never enters A
			}
		}
		h.reset()
		seed := int32(-1)
		for i := 0; i < n; i++ {
			if alive[i] {
				seed = int32(i)
				break
			}
		}
		h.push(pqItem{v: seed, dist: 0})
		added := 0
		var prev, last int32 = -1, -1
		var lastKey float64
		for h.len() > 0 {
			it := h.pop()
			r := it.v
			if mark[r] == 1 || -it.dist < key[r] {
				continue // already in A, or stale entry
			}
			mark[r] = 1
			prev, last = last, r
			lastKey = key[r]
			added++
			// Relax every original arc of every member of r.
			for m := head[r]; m != -1; m = next[m] {
				for a := off[m]; a < off[m+1]; a++ {
					t := find(arcTo[a])
					if mark[t] == 1 || t == r {
						continue
					}
					key[t] += arcW[a]
					h.push(pqItem{v: t, dist: -key[t]})
				}
			}
		}
		if added < remaining {
			// Some alive supervertex was unreachable: the restriction
			// is disconnected, a cut of 0.
			return 0, true
		}
		if lastKey < best {
			best = lastKey
		}
		// Contract last into prev: union the roots and splice the
		// member lists so future phases iterate both footprints.
		parent[last] = prev
		next[tail[prev]] = head[last]
		tail[prev] = tail[last]
		alive[last] = false
	}
	return best, true
}

// unitCutLE1 decides the unit-weight minimum cut when it is 0 or 1:
// one iterative DFS from local vertex 0 checks reachability of every
// selected vertex and finds bridges via lowpoints. The reverse half
// of the tree arc is recognized by its staged-edge id, so a parallel
// edge (distinct id, same endpoints) correctly cancels a bridge. The
// second return is false when λ ≥ 2 and the caller must run the full
// phase loop.
func (mc *mincutScratch) unitCutLE1(n int, off, arcTo, arcEid []int32) (float64, bool) {
	grow := func(p []int32) []int32 {
		if cap(p) < n {
			return make([]int32, n)
		}
		return p[:n]
	}
	mc.dfsStk = grow(mc.dfsStk)
	mc.dfsDisc = grow(mc.dfsDisc)
	mc.dfsLow = grow(mc.dfsLow)
	mc.dfsCur = grow(mc.dfsCur)
	mc.dfsEid = grow(mc.dfsEid)
	stk, disc, low, cur, ieid := mc.dfsStk, mc.dfsDisc, mc.dfsLow, mc.dfsCur, mc.dfsEid
	for i := 0; i < n; i++ {
		disc[i] = 0 // unvisited
	}

	timer := int32(1)
	visited := 1
	bridge := false
	sp := 0
	stk[sp] = 0
	disc[0], low[0] = timer, timer
	cur[0], ieid[0] = off[0], -1
	timer++
	sp++
	for sp > 0 {
		u := stk[sp-1]
		if a := cur[u]; a < off[u+1] {
			cur[u] = a + 1
			v := arcTo[a]
			if arcEid[a] == ieid[u] {
				continue // the reverse half of the tree arc into u
			}
			if disc[v] == 0 {
				disc[v], low[v] = timer, timer
				cur[v], ieid[v] = off[v], arcEid[a]
				timer++
				visited++
				stk[sp] = v
				sp++
			} else if disc[v] < low[u] {
				low[u] = disc[v]
			}
		} else {
			sp--
			if sp > 0 {
				p := stk[sp-1]
				if low[u] < low[p] {
					low[p] = low[u]
				}
				if low[u] > disc[p] {
					bridge = true
				}
			}
		}
	}
	if visited < n {
		return 0, true // disconnected restriction
	}
	if bridge {
		return 1, true
	}
	return 0, false // 2-edge-connected: λ ≥ 2, run the phase loop
}
