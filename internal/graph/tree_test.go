package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// tree_test.go pins the tree-query contract: one full ShortestTreeWS
// settle answers every destination exactly as the per-pair entry
// points would — same distances, same parent-trace paths — because
// parents only change on strictly-shorter relaxations, so a settled
// vertex's chain is final regardless of where the run stopped.

func TestTreeQueriesMatchPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tws, pws := NewWorkspace(), NewWorkspace()
	for trial := 0; trial < 20; trial++ {
		g := randomMultigraph(rng)
		for src := 0; src < g.NumVertices(); src += 3 {
			g.ShortestTreeWS(tws, src, nil)
			for dst := 0; dst < g.NumVertices(); dst++ {
				tp, tok := g.TreePathWS(tws, dst)
				pd, pok := g.ShortestDistanceWS(pws, src, dst, nil)
				if tok != pok {
					t.Fatalf("trial %d %d->%d: tree ok=%v, per-pair ok=%v", trial, src, dst, tok, pok)
				}
				if tok && tp.Weight != pd {
					t.Fatalf("trial %d %d->%d: tree dist %v, per-pair %v", trial, src, dst, tp.Weight, pd)
				}
				pp, pok := g.ShortestPathWS(pws, src, dst, nil)
				if tok != pok {
					t.Fatalf("trial %d %d->%d: tree path ok=%v, per-pair ok=%v", trial, src, dst, tok, pok)
				}
				if tok && !reflect.DeepEqual(tp, pp) {
					t.Fatalf("trial %d %d->%d: tree path %+v, per-pair %+v", trial, src, dst, tp, pp)
				}
			}
		}
	}
}

func TestTreeQueriesGuardUnprimedWorkspace(t *testing.T) {
	g := buildDiamond()
	ws := NewWorkspace()
	if _, ok := g.TreePathWS(ws, 1); ok {
		t.Error("TreePathWS answered before any ShortestTreeWS")
	}
	g.ShortestTreeWS(ws, 0, nil)
	if p, ok := g.TreePathWS(ws, 3); !ok || p.Weight != 2 || !equalIntSlices(p.Nodes, []int{0, 1, 3}) {
		t.Errorf("path to 3 = %+v, %v; want [0 1 3] weight 2", p, ok)
	}
	if _, ok := g.TreePathWS(ws, 4); ok {
		t.Error("isolated vertex reported reachable")
	}
	if _, ok := g.TreePathWS(ws, -1); ok {
		t.Error("negative destination accepted")
	}
	if _, ok := g.TreePathWS(ws, 99); ok {
		t.Error("out-of-range destination accepted")
	}
}
