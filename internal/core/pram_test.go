package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// pramSweepDigest is the FNV-1a digest of every PRAM entry's Outcome over
// TestPRAMOutcomesPinned's sweep, recorded when each step still ran as a
// list of per-op closures. The in-place steps must reproduce it exactly:
// Steps is the Brent-emulated TimeP and Work the op count, so a dropped
// or extra op shows here even when the answer is right.
const pramSweepDigest = 0x2b8fbb624c5e12fe

// pramPins are readable spot checks from the same sweep, so a digest
// mismatch can be narrowed to an entry.
var pramPins = []struct {
	name    string
	n, p    int
	seed    uint64
	outcome Outcome
}{
	{"reduce", 8, 1, 1, Outcome{Steps: 7, Work: 7, Value: 17469108463}},
	{"reduce", 13, 3, 42, Outcome{Steps: 4, Work: 7, Value: 11343871802}},
	{"reduce", 1 << 16, 1, 7, Outcome{Steps: 65535, Work: 65535, Value: 140884649304763}},
	{"prefixsums", 5, 2, 1, Outcome{Steps: 9, Work: 18, Value: 10007875235, Check: 0x16e56fdfbe573278}},
	{"prefixsums", 1000, 8, 0, Outcome{Steps: 1260, Work: 10010, Value: 2123907210088, Check: 0xe316e24bf20e85b7}},
	{"prefixsums", 1 << 14, 64, 7, Outcome{Steps: 3598, Work: 229390, Value: 35383920682223, Check: 0x81278580360f2795}},
	{"mergesort", 1, 1, 0, Outcome{Check: 0x15df8f768fb960d2}},
	{"mergesort", 13, 3, 42, Outcome{Steps: 12, Work: 24, Check: 0x645a7ecc3b1e3600}},
	{"mergesort", 1 << 14, 64, 7, Outcome{Steps: 13440, Work: 860160, Check: 0xc914da161293d819}},
}

// TestPRAMOutcomesPinned: every PRAM entry returns the Outcome (Steps,
// Work, Value, Check) it returned when steps ran as closures. The sweep
// covers n = 1, powers of two, non-powers of two and the engine's limit,
// p = 0 (ProcsFor(n)) through MaxProcs, and three seeds; at the limit
// only two processor counts run, to keep it fast under the race
// detector.
func TestPRAMOutcomesPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	cases := 0
	run := func(name string, n, p int, seed uint64) {
		o, err := RunAlgorithm(name, EnginePRAM, n, p, seed)
		if err != nil {
			t.Fatalf("%s n=%d p=%d seed=%d: %v", name, n, p, seed, err)
		}
		h.Write([]byte(name))
		for _, v := range []uint64{uint64(n), uint64(p), seed, uint64(o.Steps), uint64(o.Work), uint64(o.Value), o.Check} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		cases++
	}
	for _, name := range []string{"mergesort", "prefixsums", "reduce"} {
		for _, n := range []int{1, 2, 3, 5, 8, 13, 64, 100, 257, 1000} {
			for _, p := range []int{0, 1, 2, 3, 8, 64} {
				for _, seed := range []uint64{0, 1, 42} {
					run(name, n, p, seed)
				}
			}
		}
		for _, p := range []int{1, 64} {
			run(name, MaxN(name, EnginePRAM), p, 7)
		}
	}
	if got := h.Sum64(); got != pramSweepDigest {
		t.Errorf("PRAM sweep digest over %d runs = %#x, want %#x", cases, got, uint64(pramSweepDigest))
	}
	for _, pin := range pramPins {
		o, err := RunAlgorithm(pin.name, EnginePRAM, pin.n, pin.p, pin.seed)
		if err != nil {
			t.Fatal(err)
		}
		if o != pin.outcome {
			t.Errorf("%s n=%d p=%d seed=%d: outcome %+v, want %+v", pin.name, pin.n, pin.p, pin.seed, o, pin.outcome)
		}
	}
}

// TestPRAMReduceAllocs pins the near-free job the serving benchmarks run,
// pram reduce n=8, at its three allocations: the input, the Program
// interface value and the copy of the input that SumReduction.Memory
// hands Emulate as the working memory. The steps themselves allocate
// nothing.
func TestPRAMReduceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates, distorting the counts")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := RunAlgorithm("reduce", EnginePRAM, 8, 1, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("RunAlgorithm(reduce, pram, 8, 1) allocates %.1f times, want <= 3", allocs)
	}
}
