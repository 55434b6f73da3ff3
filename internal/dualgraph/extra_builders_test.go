package dualgraph

import (
	"testing"

	"lbcast/internal/xrand"
)

func TestRandomClusterTree(t *testing.T) {
	rng := xrand.New(3)
	d, err := RandomClusterTree(5, 4, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 20 {
		t.Fatalf("N = %d", d.N())
	}
	// Reliable edges stay within clusters.
	for _, e := range d.G.Edges() {
		if int(e.U)/4 != int(e.V)/4 {
			t.Errorf("reliable edge %v crosses clusters", e)
		}
	}
	// The inter-cluster (unreliable) topology must form a connected tree
	// over clusters: exactly clusters-1 distinct cluster pairs.
	pairs := map[[2]int]bool{}
	for _, e := range unreliableEdges(d) {
		cu, cv := int(e.U)/4, int(e.V)/4
		if cu == cv {
			t.Errorf("unreliable edge %v inside a cluster", e)
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		pairs[[2]int{cu, cv}] = true
	}
	if len(pairs) != 4 {
		t.Errorf("inter-cluster pairs = %d, want 4 (a tree over 5 clusters)", len(pairs))
	}
	// G′ must be connected; G must have exactly 5 components (the clusters).
	if comps := connectedComponents(d.Gp); len(comps) != 1 {
		t.Errorf("G' has %d components", len(comps))
	}
	if comps := connectedComponents(d.G); len(comps) != 5 {
		t.Errorf("G has %d components, want 5", len(comps))
	}
}

func TestRandomClusterTreeRejects(t *testing.T) {
	rng := xrand.New(4)
	if _, err := RandomClusterTree(0, 2, 2, rng); err == nil {
		t.Error("0 clusters accepted")
	}
	if _, err := RandomClusterTree(2, 2, 1, rng); err == nil {
		t.Error("r=1 accepted")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := connectedComponents(g)
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Errorf("first component = %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 3 {
		t.Errorf("second component = %v", comps[1])
	}
	if len(comps[2]) != 2 {
		t.Errorf("third component = %v", comps[2])
	}
}

// connectedComponents returns the vertex sets of g's connected components,
// ordered by smallest contained vertex.
func connectedComponents(g *Graph) [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for start := 0; start < g.n; start++ {
		if seen[start] {
			continue
		}
		var comp []int
		queue := []int{start}
		seen[start] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, int(v))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
