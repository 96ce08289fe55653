package core

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"lopram/internal/dandc"
	"lopram/internal/dp"
	"lopram/internal/memo"
	"lopram/internal/sim"
)

// simSweepDigest is the FNV-1a digest of every sim entry's Outcome over
// TestSimOutcomesPinned's sweep, recorded when each pal-thread still ran
// on its own goroutine behind two channels. However the threads are
// carried, the schedule must not move: Steps is the simulated T_p, Work
// the declared work and Threads the activation-tree size, so a changed
// activation order or a lost request shows here even when Value is right.
const simSweepDigest = 0xbd43e97d779f58f1

// simPins are readable spot checks from the same sweep, so a digest
// mismatch can be narrowed to an entry.
var simPins = []struct {
	name    string
	n, p    int
	seed    uint64
	outcome Outcome
}{
	{"mergesort", 13, 3, 42, Outcome{Steps: 47, Work: 90, Threads: 31}},
	{"mergesort", 4096, 7, 1, Outcome{Steps: 14723, Work: 57343, Threads: 63}},
	{"reduce", 257, 2, 1, Outcome{Steps: 768, Work: 1534, Threads: 15}},
	{"reduce", 4096, 0, 0, Outcome{Steps: 1158, Work: 12286, Threads: 127}},
	{"editdistance", 1, 1, 0, Outcome{Steps: 3, Work: 3, Threads: 3, Value: 1, Check: 0x692558b056101a44}},
	{"editdistance", 33, 0, 1, Outcome{Steps: 919, Work: 4355, Threads: 1123, Value: 4, Check: 0xa901137940a0c6d9}},
	{"lcs", 33, 3, 42, Outcome{Steps: 1541, Work: 4489, Threads: 1157, Value: 22, Check: 0x7dc3deae97b674be}},
	{"knapsack", 24, 7, 0, Outcome{Steps: 998, Work: 6885, Threads: 2426, Value: 965, Check: 0x78244091a2d092e7}},
	{"matrixchain", 24, 3, 1, Outcome{Steps: 2507, Work: 6924, Threads: 300, Value: 182019}},
}

// simSweepNs lists each sim entry's input sizes: 1, 2, 3, non-powers of
// two and a few mid sizes. The dynamic programs stop at n=33 and the
// cost models at 4096, which keeps the sweep well under a second without
// the race detector.
var simSweepNs = map[string][]int{
	"mergesort":    {1, 2, 3, 5, 13, 100, 257, 1000, 4096},
	"reduce":       {1, 2, 3, 5, 13, 100, 257, 1000, 4096},
	"closestpair":  {1, 2, 3, 5, 13, 100, 257, 1000, 4096},
	"maxsubarray":  {1, 2, 3, 5, 13, 100, 257, 1000, 4096},
	"editdistance": {1, 2, 3, 5, 13, 24, 33},
	"lcs":          {1, 2, 3, 5, 13, 24, 33},
	"knapsack":     {1, 2, 3, 5, 13, 24},
	"matrixchain":  {1, 2, 3, 5, 13, 24},
}

// TestSimOutcomesPinned: every sim entry returns the Outcome (Steps, Work,
// Threads, Value, Check) it returned when pal-threads ran on goroutines.
// The sweep covers every sim entry of the catalogue at the sizes in
// simSweepNs, p = 0 (ProcsFor(n)), 1, 2, 3 and 7, and three seeds.
func TestSimOutcomesPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	cases := 0
	for _, name := range Algorithms() {
		if MaxN(name, EngineSim) == 0 {
			continue
		}
		ns, ok := simSweepNs[name]
		if !ok {
			t.Fatalf("sim entry %q has no sweep sizes", name)
		}
		for _, n := range ns {
			for _, p := range []int{0, 1, 2, 3, 7} {
				for _, seed := range []uint64{0, 1, 42} {
					o, err := RunAlgorithm(name, EngineSim, n, p, seed)
					if err != nil {
						t.Fatalf("%s n=%d p=%d seed=%d: %v", name, n, p, seed, err)
					}
					h.Write([]byte(name))
					for _, v := range []uint64{uint64(n), uint64(p), seed, uint64(o.Steps), uint64(o.Work), uint64(o.Threads), uint64(o.Value), o.Check} {
						binary.LittleEndian.PutUint64(buf[:], v)
						h.Write(buf[:])
					}
					cases++
				}
			}
		}
	}
	if got := h.Sum64(); got != simSweepDigest {
		t.Errorf("sim sweep digest over %d runs = %#x, want %#x", cases, got, uint64(simSweepDigest))
	}
	for _, pin := range simPins {
		o, err := RunAlgorithm(pin.name, EngineSim, pin.n, pin.p, pin.seed)
		if err != nil {
			t.Fatal(err)
		}
		if o != pin.outcome {
			t.Errorf("%s n=%d p=%d seed=%d: outcome %+v, want %+v", pin.name, pin.n, pin.p, pin.seed, o, pin.outcome)
		}
	}
}

// simPoliciesDigest is the FNV-1a digest of TestSimPoliciesPinned's runs,
// recorded while every new pal-thread still entered the pending heap and
// Spawn still switched to the scheduler. The catalogue runs only the
// Preorder policy; this pins the FIFO and LIFO ablation orders as well,
// and through the traced runs every thread's timestamps and processor.
const simPoliciesDigest = 0x071258764ab76f80

// TestSimPoliciesPinned: Algorithm 1 on three dynamic programs, one
// Do-tree cost model and one memoized (§4.5) program keep their Steps,
// Work, Threads and values under every activation Policy at p = 1, 2, 3
// and 7, and one traced editdistance run per policy keeps every node's
// Created/Activated/Done/Proc and every busy interval.
func TestSimPoliciesPinned(t *testing.T) {
	h := fnv.New64a()
	put := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	dpCase := func(build func(n int, seed uint64) (dp.Spec, func([]int64) int64), n int) func() (sim.Func, []int64) {
		return func() (sim.Func, []int64) {
			spec, _ := build(n, 3)
			return dp.Program(spec, dp.BuildGraph(spec), dp.SimOptions{})
		}
	}
	programs := []struct {
		name string
		prog func() (sim.Func, []int64)
	}{
		{"editdistance", dpCase(editDistanceSpec, 12)},
		{"lcs", dpCase(lcsSpec, 12)},
		{"knapsack", dpCase(knapsackSpec, 10)},
		{"case1-do-tree", func() (sim.Func, []int64) {
			cm := dandc.CostModel{Rec: dandc.Case1Rec(), SpawnDepth: -1}
			return cm.Program(32), nil
		}},
		{"memo-editdistance", func() (sim.Func, []int64) {
			spec, _ := editDistanceSpec(10, 3)
			prog, vals, _ := memo.Program(spec, spec.Cells()-1)
			return prog, vals
		}},
	}
	policies := []sim.Policy{sim.Preorder, sim.FIFO, sim.LIFO}
	for _, pol := range policies {
		for _, pr := range programs {
			for _, p := range []int{1, 2, 3, 7} {
				prog, vals := pr.prog()
				res, err := sim.New(sim.Config{P: p, Policy: pol}).Run(prog)
				if err != nil {
					t.Fatalf("%s %v p=%d: %v", pr.name, pol, p, err)
				}
				h.Write([]byte(pr.name))
				put(int64(pol), int64(p), res.Steps, res.Work, int64(res.Threads))
				put(vals...)
			}
		}
		spec, _ := editDistanceSpec(8, 3)
		prog, _ := dp.Program(spec, dp.BuildGraph(spec), dp.SimOptions{})
		res, err := sim.New(sim.Config{P: 3, Policy: pol, Trace: true}).Run(prog)
		if err != nil {
			t.Fatalf("traced editdistance %v: %v", pol, err)
		}
		put(res.Steps, res.Work, int64(res.Threads))
		digestTrace(put, res.Trace)
	}
	if got := h.Sum64(); got != simPoliciesDigest {
		t.Errorf("sim policy digest = %#x, want %#x", got, uint64(simPoliciesDigest))
	}
}

// digestTrace feeds every node's lifecycle and every busy interval of tr
// to put.
func digestTrace(put func(...int64), tr *sim.Trace) {
	for _, n := range tr.Nodes() {
		put(int64(n.ID), n.CreatedAt, n.ActivatedAt, n.DoneAt, int64(n.Proc))
		put(n.Resumptions...)
	}
	for proc, ivs := range tr.Intervals {
		put(int64(proc), int64(len(ivs)))
		for _, iv := range ivs {
			put(iv.From, iv.To, int64(iv.Thread))
		}
	}
}

// TestSimEditDistanceAllocs pins the serving workloads' heaviest sim job,
// editdistance n=32, at 1400 allocations and 240 KB a run, averaged over
// seeds 1 to 20: its thread count depends on the seed's strings (991
// pal-threads at seed 7). A goroutine and two channels per thread made
// 16.3k allocations; pooled coroutines cut that to 4.4k, most of them the
// DAG's successor lists growing edge by edge. With the lists in one array
// the count is about 1.2k, nearly all the program's one closure per
// pal-thread, plus one 8 KB thread chunk per 93 threads.
func TestSimEditDistanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates, distorting the counts")
	}
	const runs = 20
	seed := uint64(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		seed++
		if _, err := RunAlgorithm("editdistance", EngineSim, 32, 0, seed); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun runs the function once more to warm up.
	kb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1000
	if allocs > 1400 || kb > 240 {
		t.Errorf("RunAlgorithm(editdistance, sim, 32) allocates %.0f times and %.1f KB a run, want <= 1400 and <= 240", allocs, kb)
	}
}
