// Package jobcost predicts the execution cost of a catalogue job from
// its (algorithm, engine, n, p) spec before it runs, using the same
// master-theorem recurrences (internal/master) the reproduction's
// experiments validate. Predictions come in two layers:
//
//   - Predict returns abstract work units — the recurrence's solved cost
//     for the engine's execution shape (sequential work for the
//     simulator, the p-processor parallel time for palrt, emulated total
//     work for PRAM). Units are exact up to a per-engine constant, so
//     they order jobs of one engine correctly on their own.
//
//   - Calibrator learns that per-engine constant (nanoseconds per unit)
//     online from observed completions, turning units into wall-clock
//     predictions that are comparable across engines and against
//     deadlines. It starts from conservative priors and converges by
//     exponentially weighted averaging.
//
// Fit regresses predicted units against measured wall times offline —
// the calibration experiment (A8) uses it to report how well the oracle
// tracks reality per engine (R², MAPE).
package jobcost

import (
	"math"
	"sync/atomic"
	"time"

	"lopram/internal/core"
	"lopram/internal/master"
)

// Estimate is a predicted cost in abstract work units. Known is false
// when the (algorithm, engine) pair is outside the model — callers must
// treat such jobs as unordered rather than free.
type Estimate struct {
	Known bool
	Units float64
}

// dandcRec returns the divide-and-conquer recurrence T(n) = a·T(n/b) +
// c·n^e used by the catalogue's cost-model families.
func dandcRec(a, b, c, e float64) master.Recurrence {
	return master.Recurrence{A: a, B: b, C: c, E: e, Cutoff: 16, Base: 16}
}

// Predict returns the cost model's work-unit estimate for one catalogue
// job. The units follow the engine's execution shape:
//
//   - sim runs the whole program on a single-host simulator, so units
//     are the sequential work T(n) (every simulated step costs host
//     time regardless of the simulated p).
//   - palrt executes on p real processors, so units are the recurrence's
//     p-processor parallel time (work/p plus the critical path).
//   - pram Brent-emulates every op on the host, so units are the PRAM
//     program's total work.
//
// Unknown algorithm/engine pairs return a zero Estimate.
func Predict(algorithm string, engine core.Engine, n, p int) Estimate {
	if n <= 0 {
		return Estimate{}
	}
	if p < 1 {
		p = 1
	}
	fn, fp := float64(n), float64(p)
	lg := math.Log2(math.Max(fn, 2))

	known := func(u float64) Estimate {
		if u <= 0 || math.IsInf(u, 0) || math.IsNaN(u) {
			return Estimate{}
		}
		return Estimate{Known: true, Units: u}
	}

	switch algorithm {
	case "mergesort", "quicksort", "closestpair", "maxsubarray":
		// The Θ(n log n) D&C family: T(n) = 2T(n/2) + n (Case 2).
		rec := dandcRec(2, 2, 1, 1)
		switch engine {
		case core.EngineSim:
			return known(rec.SeqTime(fn))
		case core.EnginePalrt:
			return known(rec.ParTimeSeqMerge(fn, p))
		case core.EnginePRAM:
			// Batcher's bitonic network: Θ(n log² n) total work, all of
			// it executed by the Brent emulator.
			return known(fn * lg * lg)
		}
	case "reduce":
		// Binary tree reduction: T(n) = 2T(n/2) + 1, work Θ(n).
		rec := master.Recurrence{A: 2, B: 2, C: 1, E: 0, Cutoff: 1, Base: 1}
		switch engine {
		case core.EngineSim:
			return known(rec.SeqTime(fn))
		case core.EnginePalrt:
			return known(fn/fp + lg)
		case core.EnginePRAM:
			return known(2 * fn)
		}
	case "prefixsums":
		switch engine {
		case core.EnginePalrt:
			// Work-optimal two-pass scan: 2n work, log n path.
			return known(2*fn/fp + lg)
		case core.EnginePRAM:
			// Hillis–Steele: Θ(n log n) emulated work.
			return known(fn * lg)
		}
	case "editdistance", "lcs":
		// Θ(n²) DP cells; palrt sweeps ~2n antidiagonal waves.
		switch engine {
		case core.EngineSim:
			return known(fn * fn)
		case core.EnginePalrt:
			return known(fn*fn/fp + 2*fn)
		}
	case "knapsack":
		// n items × 4n capacity cells.
		switch engine {
		case core.EngineSim:
			return known(4 * fn * fn)
		case core.EnginePalrt:
			return known(4*fn*fn/fp + fn)
		}
	case "matrixchain":
		// Interval DP: Σ_len (n−len)·len ≈ n³/6 cell work, n waves.
		switch engine {
		case core.EngineSim:
			return known(fn * fn * fn / 6)
		case core.EnginePalrt:
			return known(fn*fn*fn/(6*fp) + fn*fn)
		}
	}
	return Estimate{}
}

// Per-engine ns-per-unit priors: deliberately rough (the Calibrator
// replaces them after a handful of observations), but the right order of
// magnitude on a current host so cold-start deadline shedding errs
// toward admitting. The simulator interprets each unit through the
// scheduler loop; palrt and the PRAM emulator run closer to the metal.
const (
	priorSimNS   = 150
	priorPalrtNS = 15
	priorPRAMNS  = 30
	fallbackNS   = 50
)

func priorNS(engine core.Engine) float64 {
	switch engine {
	case core.EngineSim:
		return priorSimNS
	case core.EnginePalrt:
		return priorPalrtNS
	case core.EnginePRAM:
		return priorPRAMNS
	}
	return fallbackNS
}

// ewmaAlpha is the weight of one new observation in the calibrated
// scale: high enough to converge within ~10 jobs, low enough that one
// descheduled outlier cannot swing predictions by more than ~a third.
const ewmaAlpha = 0.3

// Calibrator learns nanoseconds-per-unit per engine from observed
// completions, turning Predict's units into wall-clock estimates. Safe
// for concurrent use without a lock: each engine's scale is one atomic
// word, updated by compare-and-swap. NewCalibrator's result and the zero
// value both hold only the static priors.
type Calibrator struct {
	// scale holds the calibrated ns-per-unit of each engine ParseEngine
	// accepts (slot picks the word), as float64 bits; 0 means not yet
	// observed.
	scale [3]atomic.Uint64
}

// NewCalibrator returns a calibrator holding only the static priors.
func NewCalibrator() *Calibrator {
	return &Calibrator{}
}

// slot returns the engine's scale word, or nil for an engine the
// calibrator does not track.
func (c *Calibrator) slot(engine core.Engine) *atomic.Uint64 {
	switch engine {
	case core.EngineSim:
		return &c.scale[0]
	case core.EnginePalrt:
		return &c.scale[1]
	case core.EnginePRAM:
		return &c.scale[2]
	}
	return nil
}

// Observe feeds one completed job's (predicted units, measured wall)
// pair into the engine's scale estimate. Non-positive inputs, and
// engines other than sim, palrt and pram, are ignored.
func (c *Calibrator) Observe(engine core.Engine, units float64, wall time.Duration) {
	w := c.slot(engine)
	if w == nil || units <= 0 || wall <= 0 {
		return
	}
	ratio := float64(wall.Nanoseconds()) / units
	for {
		old := w.Load()
		next := ratio
		if old != 0 {
			next = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*ratio
		}
		if w.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// NSPerUnit returns the engine's current nanoseconds-per-unit scale —
// the calibrated estimate once at least one observation has arrived,
// the static prior before.
func (c *Calibrator) NSPerUnit(engine core.Engine) float64 {
	if w := c.slot(engine); w != nil {
		if bits := w.Load(); bits != 0 {
			return math.Float64frombits(bits)
		}
	}
	return priorNS(engine)
}

// Wall converts units into a predicted wall-clock duration at the
// engine's current scale.
func (c *Calibrator) Wall(engine core.Engine, units float64) time.Duration {
	if units <= 0 {
		return 0
	}
	return time.Duration(units * c.NSPerUnit(engine))
}

// Fit regresses wall = scale·units through the origin by least squares
// and reports the fit quality: scale in the wall slice's own time unit
// per work unit, R² (coefficient of determination against the mean
// model), and MAPE (mean absolute percentage error of the fitted
// predictions). It needs at least two samples with positive units and
// wall; otherwise ok is false.
func Fit(units, wall []float64) (scale, r2, mape float64, ok bool) {
	if len(units) != len(wall) {
		return 0, 0, 0, false
	}
	var su2, suw float64
	n := 0
	for i := range units {
		if units[i] <= 0 || wall[i] <= 0 {
			continue
		}
		su2 += units[i] * units[i]
		suw += units[i] * wall[i]
		n++
	}
	if n < 2 || su2 == 0 {
		return 0, 0, 0, false
	}
	scale = suw / su2
	var mean float64
	for i := range wall {
		if units[i] <= 0 || wall[i] <= 0 {
			continue
		}
		mean += wall[i]
	}
	mean /= float64(n)
	var ssRes, ssTot, ape float64
	for i := range units {
		if units[i] <= 0 || wall[i] <= 0 {
			continue
		}
		pred := scale * units[i]
		ssRes += (wall[i] - pred) * (wall[i] - pred)
		ssTot += (wall[i] - mean) * (wall[i] - mean)
		ape += math.Abs(wall[i]-pred) / wall[i]
	}
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	} else if ssRes == 0 {
		r2 = 1
	}
	mape = ape / float64(n)
	return scale, r2, mape, true
}
