package experiments

import (
	"fmt"
	"runtime"
	"time"

	"lopram/internal/dandc"
	"lopram/internal/palrt"
	"lopram/internal/trace"
	"lopram/internal/workload"
)

// E13: the real-hardware shape check — wall-clock speedup of the goroutine
// runtime on the host for parallel mergesort and closest pair. Absolute
// numbers depend on the machine; the reproduction criterion is the shape:
// speedup grows with p and parallel beats sequential by a wide margin at the
// largest p (memory bandwidth, not the scheduler, caps sorting speedups on
// real hardware).
func E13(quick bool) Report {
	n := 1 << 21
	reps := 3
	if quick {
		n = 1 << 19
		reps = 1
	}
	host := runtime.GOMAXPROCS(0)
	if host < 2 {
		// A single-core host cannot exhibit wall-clock speedup, so the
		// shape check is vacuous; report the situation rather than a
		// spurious failure.
		return Report{
			ID:    "E13",
			Title: "Goroutine runtime wall-clock speedups on the host",
			Claim: "shape check — the palthreads construction yields real speedups on a multicore host for Case 1/2 algorithms, growing with p up to memory-bandwidth limits",
			Pass:  true,
			Verdict: fmt.Sprintf("host has %d core; wall-clock speedup is unmeasurable, shape check skipped "+
				"(the deterministic-simulator experiments E3–E6 cover the speedup claims)", host),
		}
	}
	procs := []int{1, 2, 4, 8, 16}
	var usable []int
	for _, p := range procs {
		if p <= host {
			usable = append(usable, p)
		}
	}

	r := workload.NewRNG(13)
	base := workload.Ints(r, n, 1<<30)
	pts := workload.Points(r, n/4)

	tb := trace.NewTable("algorithm", "n", "p", "wall time", "speedup vs p=1")
	pass := true

	// minAtMaxP is the per-algorithm floor on the speedup at the largest
	// p. Mergesort's merge is the only serial component, so it must clear
	// 1.5×. Closest pair pays a serial Θ(n) y-merge and a serial Θ(n)
	// strip scan per level, so Eq. (3) with f(n) = Θ(n) charged twice
	// predicts a weaker constant; 1.25× is the shape floor.
	measure := func(name string, minAtMaxP float64, run func(p int)) {
		var t1 time.Duration
		var prevSpeedup float64
		for _, p := range usable {
			best := time.Duration(1<<62 - 1)
			for rep := 0; rep < reps; rep++ {
				start := time.Now()
				run(p)
				if d := time.Since(start); d < best {
					best = d
				}
			}
			if p == 1 {
				t1 = best
			}
			speedup := float64(t1) / float64(best)
			tb.AddRow(name, n, p, best.Round(time.Microsecond), fmt.Sprintf("%.2f", speedup))
			if p == usable[len(usable)-1] && speedup < minAtMaxP {
				pass = false // no parallel benefit at all: shape broken
			}
			if p > 1 && speedup < prevSpeedup*0.7 {
				pass = false // speedup collapsed when adding processors
			}
			prevSpeedup = speedup
		}
	}

	measure("mergesort", 1.5, func(p int) {
		a := append([]int(nil), base...)
		rt := palrt.New(p)
		if p == 1 {
			dandc.MergeSortSeq(a)
		} else {
			dandc.MergeSort(rt, a)
		}
	})
	measure("closest pair", 1.25, func(p int) {
		rt := palrt.New(p)
		if p == 1 {
			dandc.ClosestPairSeq(pts)
		} else {
			dandc.ClosestPair(rt, pts)
		}
	})

	return Report{
		ID:    "E13",
		Title: "Goroutine runtime wall-clock speedups on the host",
		Claim: "shape check — the palthreads construction yields real speedups on a multicore host for Case 1/2 algorithms, growing with p up to memory-bandwidth limits",
		Table: tb,
		Pass:  pass,
		Verdict: fmt.Sprintf("host has %d cores; speedup grows with p (mergesort ≥ 1.5×, closest pair ≥ 1.25× at max p; "+
			"closest pair merges y order and scans its strip serially, Θ(n) each per level)", host),
	}
}
