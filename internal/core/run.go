package core

import (
	"fmt"
	"math"
	"sort"

	"lopram/internal/dandc"
	"lopram/internal/dp"
	"lopram/internal/master"
	"lopram/internal/memo"
	"lopram/internal/palrt"
	"lopram/internal/pram"
	"lopram/internal/sim"
	"lopram/internal/workload"
)

// This file is the named-algorithm dispatch surface: every algorithm the
// serving layer can run, addressable by (name, engine, n, p, seed). Inputs
// are derived deterministically from the seed, so two runs of the same spec
// — on the same engine or across engines where the result is engine
// independent — produce identical Outcomes. internal/jobqueue dispatches
// through RunAlgorithm; cmd/lopramd exposes it over HTTP.

// Engine selects which execution engine runs a job.
type Engine string

const (
	// EngineSim is the deterministic discrete-time machine simulator:
	// exact simulated step counts under the §3.1 scheduler.
	EngineSim Engine = "sim"
	// EnginePalrt is the goroutine palthreads runtime: real execution on
	// the host's cores.
	EnginePalrt Engine = "palrt"
	// EnginePRAM is the classical Θ(n)-processor PRAM baseline emulated
	// on p processors via Brent's Lemma (§2) — the work-suboptimal
	// comparison point.
	EnginePRAM Engine = "pram"
)

// ParseEngine converts a wire string into an Engine.
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case EngineSim, EnginePalrt, EnginePRAM:
		return Engine(s), nil
	}
	return "", fmt.Errorf("unknown engine %q (want sim, palrt or pram)", s)
}

// Outcome is the engine-reported result of one algorithm run.
type Outcome struct {
	// Steps is the simulated time: T_p machine steps for EngineSim, the
	// Brent-emulated Σ⌈opsᵢ/p⌉ for EnginePRAM, 0 for EnginePalrt (real
	// time is the caller's to measure).
	Steps int64 `json:"steps,omitempty"`
	// Work is the total declared work (sim) or operation count (pram).
	Work int64 `json:"work,omitempty"`
	// Threads is the number of pal-threads created (sim only).
	Threads int `json:"threads,omitempty"`
	// Value is the algorithm's scalar answer where it has one (edit
	// distance, optimal cost, max subarray sum, Σa, …).
	Value int64 `json:"value"`
	// Check is an FNV-1a checksum of the algorithm's full output, used
	// to confirm cross-engine and cache-vs-recompute agreement.
	Check uint64 `json:"check"`
	// Sched is the work-stealing scheduler's spawn/steal/inline breakdown
	// for the run (EnginePalrt only). The split is timing-dependent; the
	// total offered children (Sched.Offered) is deterministic for a spec.
	Sched *palrt.SchedulerStats `json:"sched,omitempty"`
}

// runner executes one (algorithm, engine) pair. Inputs derive from seed.
type runner func(n, p int, seed uint64) (Outcome, error)

// impl is one (algorithm, engine) pair of the catalogue: the runner and
// the range of input sizes it admits. maxN is admission control: the
// simulator and the Brent emulator do Θ(n)–Θ(n²) model bookkeeping per
// run, so unbounded n is a denial of service. minN, where set, raises the
// floor above 1 for a runner that cannot run smaller inputs (closest pair
// needs two points), so the spec is refused instead of panicking the
// worker that runs it.
type impl struct {
	minN int
	maxN int
	run  runner
}

// Algorithms returns the catalogue's algorithm names, sorted.
func Algorithms() []string {
	names := make([]string, 0, len(catalogue))
	for name := range catalogue {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EnginesFor returns the engines supporting the named algorithm, sorted.
func EnginesFor(name string) []Engine {
	impls, ok := catalogue[name]
	if !ok {
		return nil
	}
	engines := make([]Engine, 0, len(impls))
	for e := range impls {
		engines = append(engines, e)
	}
	sort.Slice(engines, func(i, j int) bool { return engines[i] < engines[j] })
	return engines
}

// MaxN returns the largest admissible input size for (name, engine), or 0
// if the pair is unsupported.
func MaxN(name string, engine Engine) int {
	return catalogue[name][engine].maxN
}

// MaxProcs is the largest processor count RunAlgorithm accepts. The LoPRAM
// premise is p = O(log n), so 64 processors already covers n beyond 2⁶⁴;
// larger p is a spec error, not a bigger machine.
const MaxProcs = 64

// ValidateSpec checks (name, engine, n, p) against the catalogue without
// running anything. p = 0 means "model default" (ProcsFor(n)) and is valid.
func ValidateSpec(name string, engine Engine, n, p int) error {
	_, err := resolve(name, engine, n, p)
	return err
}

// resolve checks (name, engine, n, p) against the catalogue and returns the
// entry that runs it.
func resolve(name string, engine Engine, n, p int) (impl, error) {
	impls, ok := catalogue[name]
	if !ok {
		return impl{}, fmt.Errorf("unknown algorithm %q", name)
	}
	im, ok := impls[engine]
	if !ok {
		return impl{}, fmt.Errorf("algorithm %q does not support engine %q (supported: %v)", name, engine, EnginesFor(name))
	}
	if n < 1 {
		return impl{}, fmt.Errorf("n must be >= 1, got %d", n)
	}
	if n < im.minN {
		return impl{}, fmt.Errorf("n=%d is below the %s engine's minimum %d for %q", n, engine, im.minN, name)
	}
	if n > im.maxN {
		return impl{}, fmt.Errorf("n=%d exceeds the %s engine's limit %d for %q", n, engine, im.maxN, name)
	}
	if p < 0 || p > MaxProcs {
		return impl{}, fmt.Errorf("p must be in [0, %d], got %d", MaxProcs, p)
	}
	return im, nil
}

// RunAlgorithm runs the named algorithm at input size n with p processors
// (p = 0 selects ProcsFor(n)) on the given engine, deriving inputs from
// seed. Runs are not preemptible — like an activated pal-thread, a job
// "remains active just like a standard thread" once started — so callers
// enforcing deadlines do it around this call; ValidateSpec's size limits
// keep every admissible run bounded.
func RunAlgorithm(name string, engine Engine, n, p int, seed uint64) (Outcome, error) {
	im, err := resolve(name, engine, n, p)
	if err != nil {
		return Outcome{}, err
	}
	if p == 0 {
		p = ProcsFor(n)
	}
	return im.run(n, p, seed)
}

// ---- checksum helpers ----

// checksumInts and checksumInt64s return the FNV-1a hash of their input,
// each value taken as the eight little-endian bytes of its int64: what
// hash/fnv's New64a returns over those bytes (Outcome.Check's documented
// meaning), computed inline without the hash.Hash64 interface.
func checksumInts(a []int) uint64 { return fnv64a(a) }

func checksumInt64s(a []int64) uint64 { return fnv64a(a) }

func fnv64a[T int | int64](a []T) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for _, v := range a {
		w := uint64(v)
		for range 8 {
			h = (h ^ w&0xff) * 1099511628211 // FNV 64-bit prime
			w >>= 8
		}
	}
	return h
}

// ---- engine runner builders ----

// simCostModel runs the recurrence's straightforward parallelization on the
// machine simulator, truncated below the spawn frontier (which provably
// does not change the schedule — see CostModel.SpawnDepth).
func simCostModel(rec func() master.IntRec) runner {
	return func(n, p int, _ uint64) (Outcome, error) {
		r := rec()
		cm := dandc.CostModel{Rec: r, SpawnDepth: master.FrontierDepth(p, r.A) + 2}
		res, err := sim.New(sim.Config{P: p}).Run(cm.Program(int64(n)))
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Steps: res.Steps, Work: res.Work, Threads: res.Threads}, nil
	}
}

// simDP runs a DP spec through Algorithm 1 on the simulator.
func simDP(build func(n int, seed uint64) (dp.Spec, func(vals []int64) int64)) runner {
	return func(n, p int, seed uint64) (Outcome, error) {
		spec, answer := build(n, seed)
		g := dp.BuildGraph(spec)
		prog, vals := dp.Program(spec, g, dp.SimOptions{})
		res, err := sim.New(sim.Config{P: p}).Run(prog)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{
			Steps: res.Steps, Work: res.Work, Threads: res.Threads,
			Value: answer(vals), Check: checksumInt64s(vals),
		}, nil
	}
}

// palrtRunner builds an EnginePalrt runner: it owns the runtime's
// lifecycle and attaches the scheduler snapshot to the outcome, so every
// palrt engine reports its spawn/steal/inline split without call-site
// churn.
func palrtRunner(run func(rt *palrt.RT, n int, seed uint64) (Outcome, error)) runner {
	return func(n, p int, seed uint64) (Outcome, error) {
		rt := palrt.New(p)
		out, err := run(rt, n, seed)
		if err != nil {
			return out, err
		}
		s := rt.StatsSnapshot()
		out.Sched = &s
		return out, nil
	}
}

// palrtDP runs a DP spec through the counter scheduler on the goroutine
// runtime.
func palrtDP(build func(n int, seed uint64) (dp.Spec, func(vals []int64) int64)) runner {
	return palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
		spec, answer := build(n, seed)
		g := dp.BuildGraphParallel(rt, spec)
		vals, err := dp.RunCounter(spec, g, rt.P())
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Value: answer(vals), Check: checksumInt64s(vals)}, nil
	})
}

// pramProgram Brent-emulates a classical PRAM program on p processors.
func pramProgram(build func(n int, seed uint64) (pram.Program, func(res pram.Result) (int64, uint64))) runner {
	return func(n, p int, seed uint64) (Outcome, error) {
		prog, answer := build(n, seed)
		res := pram.Emulate(prog, p)
		value, check := answer(res)
		return Outcome{Steps: res.TimeP, Work: res.Work, Value: value, Check: check}, nil
	}
}

// pow2Floor rounds n down to a power of two (the PRAM network programs
// require power-of-two inputs).
func pow2Floor(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// ---- DP spec builders (shared by the sim and palrt runners so both
// engines see identical inputs for a given seed) ----

func editDistanceSpec(n int, seed uint64) (dp.Spec, func([]int64) int64) {
	r := workload.NewRNG(seed)
	a, b := workload.RelatedStrings(r, n, 4, n/8+1)
	spec := dp.NewEditDistance(a, b)
	return spec, func(vals []int64) int64 { return spec.Distance(vals) }
}

func lcsSpec(n int, seed uint64) (dp.Spec, func([]int64) int64) {
	r := workload.NewRNG(seed)
	a := workload.String(r, n, 4)
	b := workload.String(r, n, 4)
	spec := dp.NewLCS(a, b)
	return spec, func(vals []int64) int64 { return spec.Length(vals) }
}

func knapsackSpec(n int, seed uint64) (dp.Spec, func([]int64) int64) {
	r := workload.NewRNG(seed)
	weights, values := workload.Weights(r, n, 16, 100)
	capacity := 4 * n // half the expected total weight
	spec := dp.NewKnapsack(weights, values, capacity)
	return spec, func(vals []int64) int64 { return spec.Best(vals) }
}

func matrixChainDims(n int, seed uint64) []int {
	return workload.ChainDims(workload.NewRNG(seed), n, 2, 64)
}

// ---- the catalogue ----

var catalogue = map[string]map[Engine]impl{
	"mergesort": {
		// The Case 2 cost model T(n) = 2T(n/2) + n on the exact
		// scheduler.
		EngineSim: {maxN: 1 << 30, run: simCostModel(dandc.Mergesort)},
		EnginePalrt: {maxN: 1 << 22, run: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
			a := workload.Ints(workload.NewRNG(seed), n, 1<<30)
			dandc.MergeSort(rt, a)
			if !sort.IntsAreSorted(a) {
				return Outcome{}, fmt.Errorf("mergesort produced unsorted output")
			}
			return Outcome{Check: checksumInts(a)}, nil
		})},
		// Batcher's bitonic network: the Θ(n log² n)-work baseline.
		EnginePRAM: {maxN: 1 << 14, run: pramProgram(func(n int, seed uint64) (pram.Program, func(pram.Result) (int64, uint64)) {
			n = pow2Floor(n)
			in := workload.Int64s(workload.NewRNG(seed), n)
			b := pram.BitonicSort{Input: in}
			return b, func(res pram.Result) (int64, uint64) {
				return 0, checksumInt64s(b.Sorted(res))
			}
		})},
	},
	"quicksort": {
		EnginePalrt: {maxN: 1 << 22, run: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
			a := workload.Ints(workload.NewRNG(seed), n, 1<<30)
			dandc.QuickSort(rt, a)
			if !sort.IntsAreSorted(a) {
				return Outcome{}, fmt.Errorf("quicksort produced unsorted output")
			}
			return Outcome{Check: checksumInts(a)}, nil
		})},
	},
	"reduce": {
		// Binary tree reduction T(n) = 2T(n/2) + 1.
		EngineSim: {maxN: 1 << 30, run: simCostModel(func() master.IntRec {
			return master.IntRec{A: 2, B: 2, Cutoff: 1, Divide: dandc.Unit, Merge: dandc.Unit, Base: dandc.Unit}
		})},
		EnginePalrt: {maxN: 1 << 24, run: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
			a := workload.Int64s(workload.NewRNG(seed), n)
			// Bound entries so Σa fits in int64 regardless of n.
			for i := range a {
				a[i] %= 1 << 32
			}
			sum := dandc.ReduceSum(rt, a)
			return Outcome{Value: sum}, nil
		})},
		EnginePRAM: {maxN: 1 << 16, run: pramProgram(func(n int, seed uint64) (pram.Program, func(pram.Result) (int64, uint64)) {
			n = pow2Floor(n)
			in := workload.Int64s(workload.NewRNG(seed), n)
			for i := range in {
				in[i] %= 1 << 32
			}
			return pram.SumReduction{Input: in}, func(res pram.Result) (int64, uint64) {
				return res.Mem[0], 0
			}
		})},
	},
	"prefixsums": {
		EnginePalrt: {maxN: 1 << 24, run: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
			a := workload.Int64s(workload.NewRNG(seed), n)
			for i := range a {
				a[i] %= 1 << 32
			}
			out := dandc.PrefixSums(rt, a)
			return Outcome{Value: out[len(out)-1], Check: checksumInt64s(out)}, nil
		})},
		// Hillis–Steele: Θ(n log n) work, the canonical work-suboptimal
		// PRAM scan.
		EnginePRAM: {maxN: 1 << 14, run: pramProgram(func(n int, seed uint64) (pram.Program, func(pram.Result) (int64, uint64)) {
			in := workload.Int64s(workload.NewRNG(seed), n)
			for i := range in {
				in[i] %= 1 << 32
			}
			h := pram.HillisSteele{Input: in}
			return h, func(res pram.Result) (int64, uint64) {
				scan := h.Scan(res)
				return scan[len(scan)-1], checksumInt64s(scan)
			}
		})},
	},
	"editdistance": {
		// The DP table is Θ(n²) cells; 512 keeps a single sim run in the
		// hundreds of milliseconds.
		EngineSim:   {maxN: 512, run: simDP(editDistanceSpec)},
		EnginePalrt: {maxN: 1 << 11, run: palrtDP(editDistanceSpec)},
	},
	"lcs": {
		EngineSim:   {maxN: 512, run: simDP(lcsSpec)},
		EnginePalrt: {maxN: 1 << 11, run: palrtDP(lcsSpec)},
	},
	"knapsack": {
		EngineSim:   {maxN: 96, run: simDP(knapsackSpec)},
		EnginePalrt: {maxN: 1 << 10, run: palrtDP(knapsackSpec)},
	},
	"matrixchain": {
		// Top-down parallel memoization (§4.5) on the simulator.
		EngineSim: {maxN: 96, run: func(n, p int, seed uint64) (Outcome, error) {
			spec := dp.NewMatrixChain(matrixChainDims(n, seed))
			prog, vals, _ := memo.Program(spec, spec.Cells()-1)
			res, err := sim.New(sim.Config{P: p}).Run(prog)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{
				Steps: res.Steps, Work: res.Work, Threads: res.Threads,
				Value: vals[spec.Cells()-1],
			}, nil
		}},
		EnginePalrt: {maxN: 512, run: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
			spec := dp.NewMatrixChain(matrixChainDims(n, seed))
			v, _ := memo.Run(rt, spec, spec.Cells()-1)
			return Outcome{Value: v}, nil
		})},
	},
	"closestpair": {
		// T(n) = 2T(n/2) + n: the divide/combine of §4.1's closest pair
		// on the exact scheduler.
		EngineSim: {maxN: 1 << 30, run: simCostModel(dandc.Mergesort)},
		EnginePalrt: {minN: 2, maxN: 1 << 20, run: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
			pts := workload.Points(workload.NewRNG(seed), n)
			d := dandc.ClosestPair(rt, pts)
			return Outcome{Check: math.Float64bits(d)}, nil
		})},
	},
	"maxsubarray": {
		EngineSim: {maxN: 1 << 30, run: simCostModel(dandc.Mergesort)},
		EnginePalrt: {maxN: 1 << 22, run: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
			a := workload.Ints(workload.NewRNG(seed), n, 2001)
			for i := range a {
				a[i] -= 1000 // mixed-sign input, the interesting case
			}
			return Outcome{Value: int64(dandc.MaxSubarray(rt, a))}, nil
		})},
	},
}
