// Package pram implements the classical PRAM baseline the paper positions
// LoPRAM against (§1–§2): algorithms designed for Θ(n) processors, emulated
// on a machine with only p processors via Brent's Lemma [Brent 1974] — "if
// the number of processors available in practice was smaller, the Θ(n)
// processor solution could be emulated using Brent's Lemma".
//
// A PRAM program is a sequence of synchronous parallel steps; each step is a
// batch of independent unit-cost operations on a shared memory, which the
// program executes in place and counts. Emulation on p processors costs
// Σᵢ ⌈opsᵢ/p⌉ ≤ W/p + S steps (W total work, S steps) — Brent's bound,
// which Emulate reports and the tests verify.
//
// The catalogue includes the textbook PRAM algorithms whose *work
// sub-optimality* motivates the paper: Hillis–Steele prefix sums and
// pointer-jumping list ranking both do Θ(n log n) work for an Θ(n)-work
// problem, so even a perfect Brent emulation loses a log n factor to the
// work-optimal LoPRAM algorithms (experiment E16).
package pram

import "fmt"

// Program is a PRAM algorithm: a sequence of synchronous steps, each of
// which the program executes itself.
type Program interface {
	// Memory returns the initial shared memory contents in a fresh slice:
	// Emulate executes the steps on it in place and returns it as
	// Result.Mem, so it must not alias the program's input.
	Memory() []int64
	// Step executes the step'th parallel step on mem and returns how many
	// unit-cost operations it performed, or 0 when the program is
	// complete. A step's operations must be independent: each writes
	// cells no other operation of the step reads or writes, so running
	// them in sequence is one legal schedule of the parallel step.
	Step(step int, mem []int64) (ops int)
}

// Result summarises an emulated execution.
type Result struct {
	// Steps is the PRAM program's step count S (its depth/span).
	Steps int
	// Work is the total operation count W.
	Work int64
	// TimeP is the emulated wall-clock on p processors: Σ ⌈opsᵢ/p⌉.
	TimeP int64
	// Mem is the final memory.
	Mem []int64
}

// BrentBound returns W/p + S, the Brent's Lemma upper bound on TimeP.
func (r Result) BrentBound(p int) int64 {
	return r.Work/int64(p) + int64(r.Steps)
}

// Emulate runs the program on p emulated processors and returns the result.
// Each step executes in place on the memory the program's Memory returns,
// which Emulate owns from then on, and a step
// of ops operations is charged ⌈ops/p⌉ time: its operations run in batches
// of p. Every program in this package keeps a step's reads and writes
// disjoint, so the order within a step cannot change the result.
func Emulate(prog Program, p int) Result {
	if p < 1 {
		panic(fmt.Sprintf("pram: invalid processor count %d", p))
	}
	mem := prog.Memory()
	var res Result
	for step := 0; ; step++ {
		ops := prog.Step(step, mem)
		if ops == 0 {
			break
		}
		res.Steps++
		res.Work += int64(ops)
		res.TimeP += int64((ops + p - 1) / p)
	}
	res.Mem = mem
	return res
}

// ---- Catalogue ----

// SumReduction is the classical Θ(n)-processor PRAM tree reduction: log₂ n
// steps, n/2ⁱ operations at step i, total work n−1 (work-optimal). The sum
// ends in cell 0. n must be a power of two.
type SumReduction struct {
	Input []int64
}

// Memory returns a copy of the input.
func (s SumReduction) Memory() []int64 { return append([]int64(nil), s.Input...) }

// Step adds each pair at the step's stride.
func (s SumReduction) Step(step int, mem []int64) int {
	n := len(s.Input)
	stride := 1 << uint(step+1)
	if stride > n {
		return 0
	}
	half := stride / 2
	ops := 0
	for i := 0; i+half < n; i += stride {
		mem[i] += mem[i+half]
		ops++
	}
	return ops
}

// HillisSteele is the classic PRAM inclusive scan: ⌈log₂ n⌉ steps with
// Θ(n) operations each — Θ(n log n) work, *not* work-optimal. It is the
// canonical example of the PRAM style the paper criticizes: simple,
// shallow, and wasteful of work.
type HillisSteele struct {
	Input []int64
}

// Memory lays out [input | scratch] so each step reads generation g and
// writes generation g+1 without read/write overlap.
func (h HillisSteele) Memory() []int64 {
	mem := make([]int64, 2*len(h.Input)+1)
	copy(mem, h.Input)
	return mem
}

// Step computes the next generation's shifted additions, then records in
// the last cell which half holds it: n+1 operations.
func (h HillisSteele) Step(step int, mem []int64) int {
	n := len(h.Input)
	offset := 1 << uint(step)
	if offset >= n {
		return 0
	}
	// generation parity selects which half is "current".
	cur, nxt := 0, n
	if step%2 == 1 {
		cur, nxt = n, 0
	}
	for i := 0; i < n; i++ {
		v := mem[cur+i]
		if i >= offset {
			v += mem[cur+i-offset]
		}
		mem[nxt+i] = v
	}
	mem[2*n] = int64(nxt)
	return n + 1
}

// Scan extracts the final prefix sums from an emulated HillisSteele result.
func (h HillisSteele) Scan(res Result) []int64 {
	n := len(h.Input)
	base := int(res.Mem[2*n])
	out := make([]int64, n)
	copy(out, res.Mem[base:base+n])
	return out
}

// ListRanking ranks a linked list by pointer jumping: each node learns its
// distance to the list's end in ⌈log₂ n⌉ steps of n operations each —
// Θ(n log n) work for a problem a sequential RAM solves in Θ(n).
// Succ[i] is the successor index, with Succ[i] == i marking the tail.
type ListRanking struct {
	Succ []int
}

// Memory lays out [next | rank | scratchNext | scratchRank].
func (l ListRanking) Memory() []int64 {
	n := len(l.Succ)
	mem := make([]int64, 4*n)
	for i, nx := range l.Succ {
		mem[i] = int64(nx)
		if nx == i {
			mem[n+i] = 0
		} else {
			mem[n+i] = 1
		}
	}
	return mem
}

// Step runs one pointer-jumping half-round: even steps jump (reading the
// live pointers, writing the scratch generation), odd steps publish the
// scratch generation back. Splitting keeps every operation unit-cost and
// every step's reads and writes disjoint.
func (l ListRanking) Step(step int, mem []int64) int {
	n := len(l.Succ)
	round := step / 2
	if 1<<uint(round) >= n {
		return 0
	}
	if step%2 == 0 {
		for i := 0; i < n; i++ {
			nx := int(mem[i])
			mem[2*n+i] = mem[nx] // next = next.next
			if nx == i {
				mem[3*n+i] = mem[n+i]
			} else {
				mem[3*n+i] = mem[n+i] + mem[n+nx] // rank += rank(next)
			}
		}
		return n
	}
	for i := 0; i < n; i++ {
		mem[i] = mem[2*n+i]
		mem[n+i] = mem[3*n+i]
	}
	return n
}

// Ranks extracts node ranks (distance to tail) from an emulated result.
func (l ListRanking) Ranks(res Result) []int64 {
	n := len(l.Succ)
	out := make([]int64, n)
	copy(out, res.Mem[n:2*n])
	return out
}
