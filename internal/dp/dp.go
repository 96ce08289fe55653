// Package dp implements the paper's parallel dynamic programming framework
// (§4.2–§4.4): a DP is given by an explicit specification of the recursive
// decomposition (Equation 6); the framework derives the dependency DAG,
// reverses it into execution order, and schedules cell computations with the
// per-vertex counter scheduler of Algorithm 1 — on the goroutine runtime for
// real speedups and on the simulator for step-count experiments. A
// level-barrier antichain sweep is provided as the scheduling ablation.
package dp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lopram/internal/dag"
	"lopram/internal/palrt"
)

// Spec is the explicit dynamic-programming specification of Equation (6):
// a finite set of cells 0..Cells()-1, the dependency relation y ≺ x, and the
// recursive cost expression f. Base cases are cells with no dependencies.
// Values are int64; every DP in this repository is integral (costs,
// distances, bitmasks).
type Spec interface {
	// Cells returns the number of table cells.
	Cells() int
	// Deps appends the cells that cell v reads (the {y_i : y_i ≺ x} of
	// Equation 6) to buf and returns the extended slice. It must be
	// deterministic and acyclic.
	Deps(v int, buf []int) []int
	// Compute returns the value of cell v; get provides the values of
	// cells listed by Deps(v), which are guaranteed to be computed.
	Compute(v int, get func(int) int64) int64
	// Cost returns the simulated work of computing cell v, for the
	// simulator experiments. Real executions ignore it.
	Cost(v int) int64
}

// BuildGraph constructs the execution DAG of the spec: an edge u→v for every
// dependency of v on u. In the paper's pipeline this is steps (i) and (ii):
// the dependencies graph is determined per cell and reversed; we emit the
// reversed (execution-order) graph directly. A first pass over Deps counts
// each cell's dependents, so the second fills every successor list in one
// array; each list holds its dependents in ascending order.
func BuildGraph(s Spec) *dag.Graph {
	n := s.Cells()
	outDeg := make([]int32, n)
	buf := make([]int, 0, 8)
	for v := 0; v < n; v++ {
		buf = s.Deps(v, buf[:0])
		for _, u := range buf {
			if uint(u) < uint(n) { // AddEdge reports the rest
				outDeg[u]++
			}
		}
	}
	g := dag.WithOutDegrees(outDeg)
	for v := 0; v < n; v++ {
		buf = s.Deps(v, buf[:0])
		for _, u := range buf {
			g.AddEdge(u, v)
		}
	}
	return g
}

// BuildGraphParallel constructs the same graph with the cell range chunked
// across the runtime's processors — the O(m·n^d/p) parallel construction of
// §4.4. Chunks accumulate edges privately and splice them afterwards, so no
// two processors write the same adjacency list; the splice fills one array
// as BuildGraph does, in the same order.
func BuildGraphParallel(rt *palrt.RT, s Spec) *dag.Graph {
	n := s.Cells()
	p := rt.P()
	if p < 1 {
		p = 1
	}
	type edge struct{ u, v int32 }
	chunks := make([][]edge, p)
	per := (n + p - 1) / p
	var jobs []func()
	for w := 0; w < p; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		w, lo, hi := w, lo, hi
		jobs = append(jobs, func() {
			buf := make([]int, 0, 8)
			var out []edge
			for v := lo; v < hi; v++ {
				buf = s.Deps(v, buf[:0])
				for _, u := range buf {
					out = append(out, edge{int32(u), int32(v)})
				}
			}
			chunks[w] = out
		})
	}
	rt.Do(jobs...)
	outDeg := make([]int32, n)
	for _, ch := range chunks {
		for _, e := range ch {
			if uint32(e.u) < uint32(n) { // AddEdge reports the rest
				outDeg[e.u]++
			}
		}
	}
	g := dag.WithOutDegrees(outDeg)
	for _, ch := range chunks {
		for _, e := range ch {
			g.AddEdge(int(e.u), int(e.v))
		}
	}
	return g
}

// RunSeq computes the whole table sequentially in a topological order of the
// execution DAG and returns the cell values. It is both the baseline T(n)
// of the speedup experiments and the correctness oracle for the parallel
// schedulers.
func RunSeq(s Spec) ([]int64, error) {
	g := BuildGraph(s)
	return RunSeqOn(s, g)
}

// RunSeqOn is RunSeq with a prebuilt graph.
func RunSeqOn(s Spec, g *dag.Graph) ([]int64, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("dp: invalid spec: %w", err)
	}
	vals := make([]int64, g.N())
	get := func(x int) int64 { return vals[x] }
	for _, v := range order {
		vals[v] = s.Compute(v, get)
	}
	return vals, nil
}

// RunCounter executes the spec with the counter scheduler of Algorithm 1 on
// the goroutine runtime: every cell carries a counter initialised to its
// in-degree; the thread that computes a cell decrements the counters of its
// dependents and schedules those reaching zero ("pal-threads ... nowait").
// p worker goroutines model the p processors. A worker whose cell makes
// successors ready computes the first of them itself and sends only the
// rest through the shared channel: §3.1's rule that a processor freed by a
// finished thread goes to a child. A chain of cells thus runs on one
// worker without touching the channel, and the count of cells left drops
// once per such run, before the worker returns to the channel.
func RunCounter(s Spec, g *dag.Graph, p int) ([]int64, error) {
	n := g.N()
	if p < 1 {
		p = 1
	}
	order, err := g.TopoSort() // validates acyclicity up front
	if err != nil {
		return nil, fmt.Errorf("dp: invalid spec: %w", err)
	}
	_ = order

	vals := make([]int64, n)
	cnt := g.InDegrees()
	queue := make(chan int, n)
	var remaining atomic.Int64
	remaining.Store(int64(n))
	if n == 0 {
		return vals, nil
	}
	for _, src := range g.Sources() {
		queue <- src
	}

	get := func(x int) int64 { return vals[x] }
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range queue {
				done := int64(0)
				for u >= 0 {
					vals[u] = s.Compute(u, get)
					done++
					next := -1
					for _, v := range g.Succ(u) {
						if atomic.AddInt32(&cnt[v], -1) == 0 {
							if next < 0 {
								next = int(v)
							} else {
								queue <- int(v)
							}
						}
					}
					u = next
				}
				if remaining.Add(-done) == 0 {
					close(queue)
				}
			}
		}()
	}
	wg.Wait()
	return vals, nil
}

// RunLevels executes the spec level by level over the Mirsky antichain
// partition with a barrier between levels: the scheduling ablation to
// Algorithm 1's counters. Within a level, cells are strip-chunked across the
// runtime.
func RunLevels(s Spec, g *dag.Graph, rt *palrt.RT) ([]int64, error) {
	layers, err := g.Antichains()
	if err != nil {
		return nil, fmt.Errorf("dp: invalid spec: %w", err)
	}
	vals := make([]int64, g.N())
	get := func(x int) int64 { return vals[x] }
	for _, layer := range layers {
		layer := layer
		rt.For(0, len(layer), 1+len(layer)/(4*rt.P()+1), func(lo, hi int) {
			for _, v := range layer[lo:hi] {
				vals[v] = s.Compute(v, get)
			}
		})
	}
	return vals, nil
}
