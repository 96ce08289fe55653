package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"lopram/internal/workload"
)

// palrtSweepDigest is the FNV-1a digest of every palrt entry's Value,
// Check and Sched.Offered() over TestPalrtOutcomesPinned's sweep, recorded
// while closest pair still split its y order per level with sort.Slice,
// the counter scheduler sent every ready cell through its channel and the
// checksums wrote through hash/fnv. The spawned/stolen/inlined split
// depends on timing; the total offered children does not, so a kernel
// that calls rt.Do at other sizes shows here even when its answer is
// right.
const palrtSweepDigest = 0x2c4bda81f39677b

// palrtSweepNs lists each palrt entry's extra input sizes beyond
// palrtBaseNs: closest pair at compute-mix's two sizes, the dynamic
// programs at compute-mix's 45 and 91.
var palrtSweepNs = map[string][]int{
	"closestpair":  {2656, 12634},
	"editdistance": {45, 91},
	"lcs":          {45, 91},
	"knapsack":     {45, 91},
}

// palrtBaseNs are the sizes every palrt entry runs at, beside its floor.
var palrtBaseNs = []int{2, 3, 5, 17, 1025, 4097}

// palrtSweepCap caps the sweep's sizes per entry. The dynamic programs'
// tables are Θ(n²) cells and matrix chain's memoized recursion is Θ(n³),
// so at n = 1025 or 4097 each would take seconds a run over the sweep's
// 15 runs per size; 91 keeps the whole sweep to a few seconds without the
// race detector.
var palrtSweepCap = map[string]int{
	"editdistance": 91,
	"lcs":          91,
	"knapsack":     91,
	"matrixchain":  91,
}

// TestPalrtOutcomesPinned: every palrt entry returns the Value, Check and
// offered-children count it returned before closest pair merged in one
// buffer and the counter scheduler handed cells off locally. The sweep
// covers every palrt entry of the catalogue at its floor, 2, 3, 5, 17,
// 1025 and 4097 (capped per palrtSweepCap) plus palrtSweepNs, p = 0
// (ProcsFor(n)), 1, 2, 3 and 7, and three seeds.
func TestPalrtOutcomesPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	cases := 0
	for _, name := range Algorithms() {
		im, ok := catalogue[name][EnginePalrt]
		if !ok {
			continue
		}
		floor := max(im.minN, 1)
		ns := append([]int{floor}, palrtBaseNs...)
		ns = append(ns, palrtSweepNs[name]...)
		for i, n := range ns {
			if i > 0 && n == floor {
				continue
			}
			if c, ok := palrtSweepCap[name]; ok && n > c {
				continue
			}
			for _, p := range []int{0, 1, 2, 3, 7} {
				for _, seed := range []uint64{0, 1, 42} {
					o, err := RunAlgorithm(name, EnginePalrt, n, p, seed)
					if err != nil {
						t.Fatalf("%s n=%d p=%d seed=%d: %v", name, n, p, seed, err)
					}
					if o.Sched == nil {
						t.Fatalf("%s n=%d p=%d seed=%d: no scheduler stats", name, n, p, seed)
					}
					h.Write([]byte(name))
					for _, v := range []uint64{uint64(n), uint64(p), seed, uint64(o.Value), o.Check, uint64(o.Sched.Offered())} {
						binary.LittleEndian.PutUint64(buf[:], v)
						h.Write(buf[:])
					}
					cases++
				}
			}
		}
	}
	if got := h.Sum64(); got != palrtSweepDigest {
		t.Errorf("palrt sweep digest over %d runs = %#x, want %#x", cases, got, uint64(palrtSweepDigest))
	}
}

// TestChecksumMatchesFNV: both checksum helpers equal hash/fnv's New64a
// over each word's eight little-endian bytes, so Outcome.Check keeps its
// documented meaning whatever the helpers' implementation.
func TestChecksumMatchesFNV(t *testing.T) {
	want := func(words []uint64) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		for _, w := range words {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
		return h.Sum64()
	}
	r := workload.NewRNG(5)
	for _, n := range []int{0, 1, 2, 7, 10000} {
		a64 := workload.Int64s(r, n)
		for i := range a64 {
			if i%2 == 1 {
				a64[i] = -a64[i]
			}
		}
		ints := make([]int, n)
		words := make([]uint64, n)
		for i, v := range a64 {
			ints[i] = int(v)
			words[i] = uint64(v)
		}
		w := want(words)
		if got := checksumInt64s(a64); got != w {
			t.Errorf("n=%d: checksumInt64s = %#x, want %#x", n, got, w)
		}
		if got := checksumInts(ints); got != w {
			t.Errorf("n=%d: checksumInts = %#x, want %#x", n, got, w)
		}
	}
	for _, v := range []int64{-1, -1 << 63, 1<<63 - 1, 0} {
		w := want([]uint64{uint64(v)})
		if got := checksumInt64s([]int64{v}); got != w {
			t.Errorf("checksumInt64s(%d) = %#x, want %#x", v, got, w)
		}
		if got := checksumInts([]int{int(v)}); got != w {
			t.Errorf("checksumInts(%d) = %#x, want %#x", v, got, w)
		}
	}
}

// TestClosestPairAllocs pins compute-mix's heaviest closest-pair job,
// palrt closestpair n=12634 at p = 0, at 300 allocations a run. The run
// sorts one copy of the points, merges through one scratch buffer and
// allocates nothing below the palthreads levels, so what remains is the
// runtime and its workers, the input, its sorted copy, the scratch buffer
// and each palthreads block's two closures and their results: about 140.
// Splitting the y order per level made about 18k.
func TestClosestPairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates, distorting the counts")
	}
	seed := uint64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		if _, err := RunAlgorithm("closestpair", EnginePalrt, 12634, 0, seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300 {
		t.Errorf("RunAlgorithm(closestpair, palrt, 12634) allocates %.0f times a run, want <= 300", allocs)
	}
}
