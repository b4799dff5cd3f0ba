// Package graph provides the small undirected-graph utilities used by the
// lower-bound machinery of Section 6 of the paper (knowledge graphs, BFS
// eccentricities) and by tests.
package graph

// Graph is a simple undirected graph over vertices 0..n-1 stored as
// adjacency lists. Parallel edges are tolerated (they do not affect
// distances); self-loops are ignored.
type Graph struct {
	n   int
	adj [][]int32
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}. Out-of-range endpoints and
// self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
}

// Unreachable is the distance reported for vertices not reachable from the
// BFS source.
const Unreachable = int32(-1)

// BFS returns the distance from src to every vertex (Unreachable when there
// is no path).
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || src >= g.n {
		return dist
	}
	queue := make([]int32, 0, g.n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the largest finite BFS distance from src and whether
// every vertex is reachable from src.
func (g *Graph) Eccentricity(src int) (ecc int, allReachable bool) {
	dist := g.BFS(src)
	allReachable = true
	for _, d := range dist {
		if d == Unreachable {
			allReachable = false
			continue
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc, allReachable
}
