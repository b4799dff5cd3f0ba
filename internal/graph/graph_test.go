package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	g := New(0)
	if ecc, all := g.Eccentricity(0); g.N() != 0 || ecc != 0 || !all {
		t.Fatalf("empty graph: %d vertices, eccentricity %d, %v", g.N(), ecc, all)
	}
	g1 := New(1)
	if ecc, all := g1.Eccentricity(0); ecc != 0 || !all {
		t.Fatalf("single vertex eccentricity = %d, %v", ecc, all)
	}
}

func TestAddEdgeIgnoresBadInput(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 0)
	g.AddEdge(-1, 2)
	g.AddEdge(0, 7)
	for src := 0; src < 3; src++ {
		for v, d := range g.BFS(src) {
			if v != src && d != Unreachable {
				t.Fatalf("an ignored edge connects %d to %d", src, v)
			}
		}
	}
}

func TestPathDistances(t *testing.T) {
	g := pathGraph(6)
	dist := g.BFS(0)
	for i := 0; i < 6; i++ {
		if dist[i] != int32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
	ecc, all := g.Eccentricity(0)
	if ecc != 5 || !all {
		t.Fatalf("eccentricity = %d, %v", ecc, all)
	}
}

func TestDisconnectedGraph(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if _, all := g.Eccentricity(0); all {
		t.Fatal("graph should be disconnected")
	}
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatal("unreachable vertices must report Unreachable")
	}
}

func TestBFSOutOfRangeSource(t *testing.T) {
	g := pathGraph(3)
	dist := g.BFS(-1)
	for _, d := range dist {
		if d != Unreachable {
			t.Fatal("BFS from invalid source should reach nothing")
		}
	}
}

func TestRandomGraphConnectivityProperty(t *testing.T) {
	// Property: a ring plus random chords is connected and no vertex is
	// further than n/2 (the ring diameter) from vertex 0.
	f := func(seed uint64, size uint8) bool {
		n := int(size)%50 + 3
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n)
		}
		src := rng.New(seed)
		for i := 0; i < n/2; i++ {
			g.AddEdge(src.Intn(n), src.Intn(n))
		}
		ecc, all := g.Eccentricity(0)
		return all && ecc <= n/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSMatchesEccentricityDefinition(t *testing.T) {
	// Property: Eccentricity(src) equals the maximum finite BFS distance.
	f := func(seed uint64, size uint8) bool {
		n := int(size)%30 + 2
		g := New(n)
		src := rng.New(seed)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(src.Intn(n), src.Intn(n))
		}
		ecc, _ := g.Eccentricity(0)
		maxFinite := 0
		for _, d := range g.BFS(0) {
			if d != Unreachable && int(d) > maxFinite {
				maxFinite = int(d)
			}
		}
		return ecc == maxFinite
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
