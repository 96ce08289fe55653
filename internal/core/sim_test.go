package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
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

// TestSimEditDistanceAllocs pins the serving workloads' heaviest sim job,
// editdistance n=32 (about 1090 pal-threads), at 6000 allocations a run.
// With a goroutine and two channels per thread it made 16.3k; on pooled
// coroutines the simulator itself allocates little beyond a slab chunk
// per 64 threads, and the count is mostly the DAG and the program's
// closures.
func TestSimEditDistanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates, distorting the counts")
	}
	seed := uint64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		if _, err := RunAlgorithm("editdistance", EngineSim, 32, 0, seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6000 {
		t.Errorf("RunAlgorithm(editdistance, sim, 32) allocates %.0f times, want <= 6000", allocs)
	}
}
