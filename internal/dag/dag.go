// Package dag implements the directed-acyclic-graph / poset substrate used by
// the LoPRAM dynamic-programming framework (paper §4.3–§4.6).
//
// The paper schedules a DP computation by viewing the dependency graph of the
// table cells as a partially ordered set: cells in an antichain are
// independent and may execute in the same parallel round, and by the dual of
// Dilworth's theorem (Mirsky's theorem) the minimum number of antichains
// needed to cover the poset equals the length of its longest chain. This
// package provides exactly those primitives: construction, topological order,
// longest-chain computation, the Mirsky antichain partition, and the
// parallelism profile used to predict speedups.
package dag

import (
	"errors"
	"fmt"
)

// Graph is a DAG over vertices 0..N-1 stored as forward adjacency lists.
// Edge u→v means "v depends on u": u must be computed before v. This is the
// *reversed* dependency graph in the paper's terminology (§4.4 step (ii)),
// i.e. edges point in execution order from prerequisite to dependent.
type Graph struct {
	n   int
	adj [][]int32
	in  []int32 // in-degree of each vertex
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("dag: negative vertex count")
	}
	return &Graph{
		n:   n,
		adj: make([][]int32, n),
		in:  make([]int32, n),
	}
}

// WithOutDegrees returns an empty graph on len(outDeg) vertices whose
// successor lists are carved from one backing array, list u with room for
// exactly outDeg[u] edges. Adding those edges then allocates nothing; an
// edge beyond a list's room reallocates that list alone, because each
// list's capacity ends where the next list begins. outDeg is not retained.
func WithOutDegrees(outDeg []int32) *Graph {
	g := New(len(outDeg))
	total := 0
	for _, d := range outDeg {
		total += int(d)
	}
	backing := make([]int32, total)
	off := 0
	for u, d := range outDeg {
		end := off + int(d)
		g.adj[u] = backing[off:off:end]
		off = end
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the edge u→v (u before v). Duplicate edges are allowed and
// counted separately; the scheduler tolerates them because counters are
// decremented once per edge. Panics on out-of-range vertices or self-loops.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("dag: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("dag: self-loop at %d", u))
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.in[v]++
}

// Succ returns the successors of u (vertices that depend on u). The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Succ(u int) []int32 { return g.adj[u] }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v int) int { return int(g.in[v]) }

// InDegrees returns a fresh copy of all in-degrees, ready to be used as the
// dependency counters of the paper's Algorithm 1.
func (g *Graph) InDegrees() []int32 {
	out := make([]int32, g.n)
	copy(out, g.in)
	return out
}

// Edges returns the total number of edges.
func (g *Graph) Edges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total
}

// Sources returns the vertices with in-degree zero, in increasing order.
// These are the base cases of the DP (§4.4): computation starts here.
func (g *Graph) Sources() []int {
	var s []int
	for v := 0; v < g.n; v++ {
		if g.in[v] == 0 {
			s = append(s, v)
		}
	}
	return s
}

// ErrCycle is returned by TopoSort and Levels when the graph has a cycle and
// is therefore not a valid dependency DAG.
var ErrCycle = errors.New("dag: graph contains a cycle")

// TopoSort returns a topological order of the vertices (Kahn's algorithm).
// Among ready vertices, lower ids come first, making the order deterministic.
func (g *Graph) TopoSort() ([]int, error) {
	indeg := g.InDegrees()
	// A simple FIFO over a sorted seed set gives a deterministic order
	// without the cost of a priority queue; determinism of the *set* of
	// rounds is what matters for the scheduler, not a total order.
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, g.n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, int(v))
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// Levels computes the Mirsky antichain partition: level(v) = length of the
// longest chain ending at v (0-based). All vertices with the same level form
// an antichain, the partition has exactly LongestChain layers, and no smaller
// antichain cover exists (Mirsky's theorem, the dual of Dilworth cited in
// §4.3). The returned slice maps vertex → level.
func (g *Graph) Levels() ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	level := make([]int, g.n)
	for _, u := range order {
		for _, v := range g.adj[u] {
			if level[u]+1 > level[int(v)] {
				level[int(v)] = level[u] + 1
			}
		}
	}
	return level, nil
}

// Antichains groups vertices by Mirsky level. Layer i contains every vertex
// whose longest incoming chain has i edges; processing layers in order
// respects all dependencies, and within a layer all vertices are pairwise
// incomparable (independent).
func (g *Graph) Antichains() ([][]int, error) {
	level, err := g.Levels()
	if err != nil {
		return nil, err
	}
	maxL := -1
	for _, l := range level {
		if l > maxL {
			maxL = l
		}
	}
	layers := make([][]int, maxL+1)
	for v, l := range level {
		layers[l] = append(layers[l], v)
	}
	return layers, nil
}

// LongestChain returns the number of vertices on the longest chain of the
// poset (the critical-path length). By Mirsky's theorem this equals the
// minimum number of antichains covering the poset, and therefore lower-bounds
// the number of parallel rounds any scheduler needs. Zero for an empty graph.
func (g *Graph) LongestChain() (int, error) {
	if g.n == 0 {
		return 0, nil
	}
	level, err := g.Levels()
	if err != nil {
		return 0, err
	}
	maxL := 0
	for _, l := range level {
		if l > maxL {
			maxL = l
		}
	}
	return maxL + 1, nil
}

// Reverse returns the graph with every edge flipped. The paper's pipeline
// (§4.4) first records, for each cell, the cells it *reads from* (the
// dependencies graph), then reverses it to obtain the execution DAG; this is
// that reversal step.
func (g *Graph) Reverse() *Graph {
	r := WithOutDegrees(g.in)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			r.AddEdge(int(v), u)
		}
	}
	return r
}

// Comparable reports whether u precedes v in the partial order (there is a
// directed path u→…→v). It runs a DFS from u; intended for tests and small
// verification runs, not for hot paths.
func (g *Graph) Comparable(u, v int) bool {
	if u == v {
		return false
	}
	seen := make([]bool, g.n)
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range g.adj[x] {
			if int(y) == v {
				return true
			}
			if !seen[y] {
				seen[y] = true
				stack = append(stack, int(y))
			}
		}
	}
	return false
}

// Profile describes the parallelism available in a DAG when every vertex
// costs one work unit: per-antichain widths, the critical path, and the
// resulting ideal speedup bound min(p, width) aggregated over layers.
type Profile struct {
	Vertices     int   // total work
	CriticalPath int   // longest chain (minimum rounds)
	Widths       []int // size of each antichain layer
	MaxWidth     int   // widest layer (peak parallelism)
}

// ParallelismProfile computes the Profile of g.
func (g *Graph) ParallelismProfile() (Profile, error) {
	layers, err := g.Antichains()
	if err != nil {
		return Profile{}, err
	}
	p := Profile{Vertices: g.n, CriticalPath: len(layers)}
	for _, l := range layers {
		p.Widths = append(p.Widths, len(l))
		if len(l) > p.MaxWidth {
			p.MaxWidth = len(l)
		}
	}
	return p, nil
}

// IdealTime returns the number of rounds needed to execute the profile with
// p processors under level-by-level scheduling with unit-cost vertices:
// Σ ceil(width_i / p). It is the quantity the antichain argument of §4.3
// bounds, and the denominator of the predicted speedup.
func (pr Profile) IdealTime(p int) int {
	if p < 1 {
		panic("dag: IdealTime requires p >= 1")
	}
	t := 0
	for _, w := range pr.Widths {
		t += (w + p - 1) / p
	}
	return t
}

// IdealSpeedup returns Vertices / IdealTime(p): the speedup a level scheduler
// achieves on p processors with unit-cost vertices.
func (pr Profile) IdealSpeedup(p int) float64 {
	t := pr.IdealTime(p)
	if t == 0 {
		return 0
	}
	return float64(pr.Vertices) / float64(t)
}
