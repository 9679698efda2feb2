package graph

// tree.go exposes the shortest-path tree a full Dijkstra settles as a
// queryable structure: run ShortestTreeWS once per source, then trace
// any number of destinations off the parent array. This is the
// source-batched complement to the per-pair entry points — one SSSP
// amortized over every destination sharing the source — and the
// results are bit-identical to per-pair ShortestPathWS queries:
// parents only change on strictly-shorter relaxations, so a settled
// vertex's parent chain is final whether or not the run stopped
// early at that vertex.

// ShortestTreeWS runs a full single-source Dijkstra from src under
// wf, leaving the settled distances and parent edges in ws for
// TreePathWS. The tree is valid until the workspace's next
// query of any kind. Zero allocations with a warmed workspace.
func (g *Graph) ShortestTreeWS(ws *Workspace, src int, wf WeightFunc) {
	t := g.topoView()
	weights := ws.materialize(g, t, wf)
	g.dijkstra(ws, t, weights, int32(src), -1)
	ws.treeSrc = int32(src)
}

// TreePathWS materializes the path from the last ShortestTreeWS
// source to dst (ok=false when unreachable); its Weight is the
// distance. Only the returned Path is allocated.
func (g *Graph) TreePathWS(ws *Workspace, dst int) (Path, bool) {
	if ws.treeSrc < 0 || dst < 0 || dst >= g.n || !ws.visited(int32(dst)) {
		return Path{}, false
	}
	return g.tracePath(ws, int(ws.treeSrc), dst), true
}
