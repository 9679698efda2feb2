package graph_test

import (
	"fmt"

	"intertubes/internal/graph"
)

func ExampleGraph_ShortestPathWS() {
	// A diamond: 0-1-3 is cheaper than 0-2-3.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 3)
	p, _ := g.ShortestPathWS(graph.NewWorkspace(), 0, 3, nil)
	fmt.Println(p.Nodes, p.Weight)
	// Output: [0 1 3] 2
}

func ExampleGraph_KShortestPaths() {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 3)
	for _, p := range g.KShortestPaths(0, 3, 2, nil) {
		fmt.Println(p.Nodes, p.Weight)
	}
	// Output:
	// [0 1 3] 2
	// [0 2 3] 4
}
