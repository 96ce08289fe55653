package dp

import (
	"lopram/internal/dag"
	"lopram/internal/sim"
)

// SimOptions configure the simulated Algorithm 1 run.
type SimOptions struct {
	// CrewCounters charges ⌈log₂ p⌉ work units per dependent-counter
	// update instead of 1, modelling the CRCW-on-CREW serialization of
	// §4.6 (concurrent updates to a popular cell's counter must combine
	// through a log-depth tree).
	CrewCounters bool
	// P must mirror the machine's processor count when CrewCounters is
	// set; it sizes the log factor.
	P int
}

// Program returns a simulator program that executes the spec with
// Algorithm 1 verbatim: the root thread pal-spawns (nowait) one thread per
// base case; each computeVertex thread performs the cell's work, decrements
// its dependents' counters, and pal-spawns (nowait) every dependent that
// becomes ready. The machine's own scheduler throttles the spawned threads
// to the available processors, exactly as §4.4 intends.
//
// The returned vals slice is filled in during the run; inspect it after
// Machine.Run returns.
//
// The program carries per-run counter state and is therefore single-use:
// build a fresh one for every Machine.Run call.
func Program(s Spec, g *dag.Graph, opt SimOptions) (prog sim.Func, vals []int64) {
	r := &counterRun{s: s, g: g, vals: make([]int64, g.N()), cnt: g.InDegrees(), updateCost: 1}
	r.get = func(x int) int64 { return r.vals[x] }
	if opt.CrewCounters {
		r.updateCost = ceilLog2(opt.P)
	}
	prog = func(tc *sim.TC) {
		ready := r.ready[:0]
		for u, c := range r.cnt {
			if c == 0 {
				ready = append(ready, r.vertex(u))
			}
		}
		r.spawn(tc, ready)
	}
	return prog, r.vals
}

// counterRun is the per-run state of a Program: the spec, its graph, the
// cell values and Algorithm 1's dependency counters. A vertex's body
// captures only the run and the vertex, so each spawned thread costs one
// small closure.
type counterRun struct {
	s          Spec
	g          *dag.Graph
	vals       []int64
	cnt        []int32
	get        func(int) int64
	updateCost int64
	// ready is reused by every vertex: Spawn keeps no reference to it,
	// and no other body runs between filling it and the Spawn.
	ready []sim.Func
}

// vertex returns the body of the thread that computes cell u.
func (r *counterRun) vertex(u int) sim.Func {
	return func(tc *sim.TC) { r.computeVertex(tc, u) }
}

// computeVertex is Algorithm 1's computeVertex(u): the cell's work, then
// one counter update per dependent, then a nowait spawn of the dependents
// whose counters reached zero.
func (r *counterRun) computeVertex(tc *sim.TC, u int) {
	tc.Work(r.s.Cost(u))
	r.vals[u] = r.s.Compute(u, r.get)
	succ := r.g.Succ(u)
	if len(succ) == 0 {
		return
	}
	tc.Work(r.updateCost * int64(len(succ)))
	ready := r.ready[:0]
	for _, v := range succ {
		r.cnt[v]--
		if r.cnt[v] == 0 {
			ready = append(ready, r.vertex(int(v)))
		}
	}
	r.spawn(tc, ready)
}

// spawn pal-spawns ready and keeps its backing array for the next vertex.
func (r *counterRun) spawn(tc *sim.TC, ready []sim.Func) {
	tc.Spawn(ready...)
	clear(ready)
	r.ready = ready[:0]
}

// BuildProgram returns a simulator program modelling the parallel
// construction of the dependencies graph (§4.4): the cell range is split
// into p chunks, each charged Σ (1 + |Deps(v)|) work — one unit to locate
// the vertex and one per recorded dependency. Its wall-clock is the
// O(m·n^d/p) bound of the paper (experiment E14).
func BuildProgram(s Spec, p int) sim.Func {
	n := s.Cells()
	return func(tc *sim.TC) {
		per := (n + p - 1) / p
		var jobs []sim.Func
		buf := make([]int, 0, 8)
		for lo := 0; lo < n; lo += per {
			hi := lo + per
			if hi > n {
				hi = n
			}
			var work int64
			for v := lo; v < hi; v++ {
				buf = s.Deps(v, buf[:0])
				work += 1 + int64(len(buf))
			}
			w := work
			jobs = append(jobs, func(tc *sim.TC) { tc.Work(w) })
		}
		tc.Do(jobs...)
	}
}

func ceilLog2(p int) int64 {
	if p <= 1 {
		return 1
	}
	l := int64(0)
	for v := p - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}
