package lca

import (
	"testing"
	"testing/quick"

	"msrp/internal/bfs"
	"msrp/internal/graph"
	"msrp/internal/xrand"
)

// naiveIsAncestor walks parent pointers from b to the root.
func naiveIsAncestor(t *bfs.Tree, a, b int32) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	for x := b; x >= 0; x = t.Parent[x] {
		if x == a {
			return true
		}
	}
	return false
}

// naiveLCA lifts the deeper vertex then walks both up in lockstep.
func naiveLCA(t *bfs.Tree, a, b int32) int32 {
	if !t.Reachable(a) || !t.Reachable(b) {
		return -1
	}
	for t.Dist[a] > t.Dist[b] {
		a = t.Parent[a]
	}
	for t.Dist[b] > t.Dist[a] {
		b = t.Parent[b]
	}
	for a != b {
		a, b = t.Parent[a], t.Parent[b]
	}
	return a
}

func TestPathGraph(t *testing.T) {
	g := graph.Path(8)
	tr := bfs.New(g, 0)
	ix := New(g, tr)
	for a := int32(0); a < 8; a++ {
		for b := int32(0); b < 8; b++ {
			wantAnc := a <= b
			if got := ix.IsAncestor(a, b); got != wantAnc {
				t.Fatalf("IsAncestor(%d,%d) = %v", a, b, got)
			}
			wantLCA := a
			if b < a {
				wantLCA = b
			}
			if got := ix.LCA(a, b); got != wantLCA {
				t.Fatalf("LCA(%d,%d) = %d, want %d", a, b, got, wantLCA)
			}
		}
	}
}

func TestAgainstNaiveOnRandomGraphs(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomConnected(rng, 50, 80+rng.Intn(60))
		root := rng.Intn(50)
		tr := bfs.New(g, root)
		ix := New(g, tr)
		n := int32(g.NumVertices())
		for a := int32(0); a < n; a++ {
			for b := int32(0); b < n; b++ {
				if got, want := ix.IsAncestor(a, b), naiveIsAncestor(tr, a, b); got != want {
					t.Fatalf("trial %d root %d: IsAncestor(%d,%d) = %v want %v",
						trial, root, a, b, got, want)
				}
				if got, want := ix.LCA(a, b), naiveLCA(tr, a, b); got != want {
					t.Fatalf("trial %d root %d: LCA(%d,%d) = %d want %d",
						trial, root, a, b, got, want)
				}
			}
		}
	}
}

func TestUnreachableVertices(t *testing.T) {
	b := graph.NewBuilder(5)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	g := b.MustBuild()
	tr := bfs.New(g, 0)
	ix := New(g, tr)
	if ix.IsAncestor(0, 3) || ix.IsAncestor(3, 0) || ix.IsAncestor(3, 4) {
		t.Fatal("ancestry with unreachable vertex")
	}
	if ix.LCA(0, 4) != -1 || ix.LCA(3, 4) != -1 {
		t.Fatal("LCA with unreachable vertex should be -1")
	}
	if ix.TreeDist(0, 4) != -1 {
		t.Fatal("TreeDist with unreachable vertex should be -1")
	}
	if ix.LCA(0, 2) != 0 || ix.TreeDist(0, 2) != 2 {
		t.Fatal("reachable pair mis-answered")
	}
}

func TestEdgeOnRootPath(t *testing.T) {
	// Star: every edge is on exactly the path to its leaf.
	g := graph.Star(6)
	tr := bfs.New(g, 0)
	ix := New(g, tr)
	for e := 0; e < g.NumEdges(); e++ {
		_, leaf := g.EdgeEndpoints(e)
		for v := int32(1); v < 6; v++ {
			want := v == leaf
			if got := ix.EdgeOnRootPath(g, int32(e), v); got != want {
				t.Fatalf("edge %d target %d: %v want %v", e, v, got, want)
			}
		}
		if ix.EdgeOnRootPath(g, int32(e), 0) {
			t.Fatal("no edge lies on the empty path to the root")
		}
	}
}

func TestEdgeOnRootPathMatchesPathEdges(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(rng, 40, 100)
		tr := bfs.New(g, 0)
		ix := New(g, tr)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			onPath := map[int32]bool{}
			for _, e := range tr.PathEdgesTo(v) {
				onPath[e] = true
			}
			for e := int32(0); e < int32(g.NumEdges()); e++ {
				if got := ix.EdgeOnRootPath(g, e, v); got != onPath[e] {
					t.Fatalf("trial %d: edge %d on path to %d: %v want %v",
						trial, e, v, got, onPath[e])
				}
			}
		}
	}
}

func TestNonTreeEdgeNeverOnPath(t *testing.T) {
	g := graph.Cycle(9) // BFS tree omits exactly one cycle edge
	tr := bfs.New(g, 0)
	ix := New(g, tr)
	nonTree := int32(-1)
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if _, ok := tr.ChildEndpoint(g, e); !ok {
			nonTree = e
			break
		}
	}
	if nonTree < 0 {
		t.Fatal("cycle must have a non-tree edge")
	}
	for v := int32(0); v < 9; v++ {
		if ix.EdgeOnRootPath(g, nonTree, v) {
			t.Fatalf("non-tree edge reported on path to %d", v)
		}
	}
}

func TestTreeDistOnGrid(t *testing.T) {
	g := graph.Grid(4, 4)
	tr := bfs.New(g, 0)
	ix := New(g, tr)
	// Distances from the root through the tree equal BFS distances.
	for v := int32(0); v < 16; v++ {
		if ix.TreeDist(tr.Root, v) != tr.Dist[v] {
			t.Fatalf("TreeDist(root,%d) = %d want %d", v, ix.TreeDist(tr.Root, v), tr.Dist[v])
		}
	}
}

func TestQuickLCAProperties(t *testing.T) {
	f := func(seed uint32, aRaw, bRaw uint8) bool {
		rng := xrand.New(uint64(seed))
		g := graph.RandomConnected(rng, 30, 45)
		tr := bfs.New(g, 0)
		ix := New(g, tr)
		a, b := int32(aRaw%30), int32(bRaw%30)
		l := ix.LCA(a, b)
		// The LCA is an ancestor of both, and symmetric.
		return l >= 0 &&
			ix.IsAncestor(l, a) && ix.IsAncestor(l, b) &&
			ix.LCA(b, a) == l &&
			ix.LCA(a, a) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	g := graph.RandomConnected(xrand.New(1), 5000, 20000)
	tr := bfs.New(g, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(g, tr)
	}
}

func BenchmarkLCAQuery(b *testing.B) {
	g := graph.RandomConnected(xrand.New(1), 5000, 20000)
	tr := bfs.New(g, 0)
	ix := New(g, tr)
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink = ix.LCA(int32(i%5000), int32((i*7)%5000))
	}
	_ = sink
}

func TestAncestryMatchesIndex(t *testing.T) {
	rng := xrand.New(20)
	g := graph.RandomConnected(rng, 60, 140)
	tr := bfs.New(g, 0)
	ix := New(g, tr)
	anc := NewAncestry(g, tr)
	for a := int32(0); a < 60; a++ {
		for b := int32(0); b < 60; b++ {
			if ix.IsAncestor(a, b) != anc.IsAncestor(a, b) {
				t.Fatalf("Ancestry and Index disagree on (%d,%d)", a, b)
			}
		}
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		for v := int32(0); v < 60; v += 7 {
			if ix.EdgeOnRootPath(g, e, v) != anc.EdgeOnRootPath(g, e, v) {
				t.Fatalf("EdgeOnRootPath disagrees on edge %d target %d", e, v)
			}
		}
	}
}

// TestTimestampsDecideAncestry: the exported timestamps answer
// IsAncestor by the interval test alone for reachable vertices, and
// mark unreachable vertices with tin = -1.
func TestTimestampsDecideAncestry(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 3}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	anc := NewAncestry(g, bfs.New(g, 0))
	view := anc.View()
	tin, tout := view.Tin, view.Tout
	for x := int32(0); x < 6; x++ {
		for y := int32(0); y < 6; y++ {
			want := anc.IsAncestor(x, y)
			got := tin[x] >= 0 && tin[y] >= 0 && tin[x] <= tin[y] && tout[y] <= tout[x]
			if got != want {
				t.Fatalf("timestamps say %v for (%d,%d), IsAncestor %v", got, x, y, want)
			}
		}
	}
	if tin[4] != -1 || tin[5] != -1 {
		t.Fatalf("unreachable vertices have tin %d, %d, want -1", tin[4], tin[5])
	}
}

// viewFamilies are the crosscheck suite's graph families (same
// generators, same seed) plus a disconnected graph, so unreachable
// roots' trees, unreachable targets (tin = -1) and edges outside a
// root's component all occur.
func viewFamilies(t *testing.T) map[string]*graph.Graph {
	rng := xrand.New(20200616)
	b := graph.NewBuilder(14)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 5}, {5, 6}, {6, 7}, {7, 4}, {4, 6}, {8, 9}, {10, 11}, {11, 12}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	disconnected, err := b.Build() // vertex 13 is isolated
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"erdos-renyi-sparse": graph.RandomConnected(rng, 26, 40),
		"erdos-renyi-dense":  graph.RandomConnected(rng, 18, 90),
		"grid-4x6":           graph.Grid(4, 6),
		"path-with-chords":   graph.PathWithChords(rng, 24, 6),
		"cycle-with-chords":  graph.CycleWithChords(rng, 22, 4),
		"barbell":            graph.Barbell(6, 5),
		"disconnected":       disconnected,
	}
}

// TestViewMatchesAncestry: for every root × edge × target, the view's
// hoisted tests answer exactly what the graph-reading Ancestry and
// Tree methods answer — OnPath with no reachability guard, Child like
// ChildEndpoint, and a reachable vertex's Span containing exactly its
// descendants. The view aliases the tree and the timestamps.
func TestViewMatchesAncestry(t *testing.T) {
	for name, g := range viewFamilies(t) {
		t.Run(name, func(t *testing.T) {
			n := int32(g.NumVertices())
			unreachable := 0
			for root := int32(0); root < n; root++ {
				tr := bfs.New(g, int(root))
				anc := NewAncestry(g, tr)
				w := anc.View()
				if &w.Dist[0] != &tr.Dist[0] || &w.ParentEdge[0] != &tr.ParentEdge[0] || &w.Tin[0] != &anc.tin[0] || &w.Tout[0] != &anc.tout[0] {
					t.Fatal("view copies instead of aliasing")
				}
				for id := int32(0); id < int32(g.NumEdges()); id++ {
					e := EdgeOf(g, id)
					child, ok := tr.ChildEndpoint(g, id)
					if got := w.Child(e); got != child || (got >= 0) != ok {
						t.Fatalf("root %d edge %d: Child %d, ChildEndpoint (%d, %v)", root, id, got, child, ok)
					}
					for y := int32(0); y < n; y++ {
						if got, want := w.OnPath(e, w.Span(y)), anc.EdgeOnRootPath(g, id, y); got != want {
							t.Fatalf("root %d edge %d target %d: OnPath %v, EdgeOnRootPath %v", root, id, y, got, want)
						}
					}
				}
				for x := int32(0); x < n; x++ {
					if !tr.Reachable(x) {
						unreachable++
						continue
					}
					for y := int32(0); y < n; y++ {
						if got, want := w.Span(x).Contains(w.Span(y)), anc.IsAncestor(x, y); got != want {
							t.Fatalf("root %d: Span(%d).Contains(Span(%d)) %v, IsAncestor %v", root, x, y, got, want)
						}
					}
				}
			}
			if name == "disconnected" && unreachable == 0 {
				t.Fatal("disconnected family reached every vertex")
			}
		})
	}
}
