package core

import (
	"slices"
	"testing"
)

// fuzzMaxN caps FuzzCatalogue's n. The catalogue admits far larger
// inputs (sim editdistance up to 512, about a second a run; palrt
// mergesort up to 2^22), and at those sizes a 20 s fuzz budget covers a
// handful of inputs. The shapes that break a runner sit below the cap:
// n = 1, non-powers of two, p above n, and the refusals past the sim
// knapsack and matrixchain limit of 96.
const fuzzMaxN = 128

// crossEngineDP lists the dynamic programs whose sim and palrt runners
// build the same table from the same seed, so both engines must agree on
// Value and Check.
var crossEngineDP = map[string]bool{"editdistance": true, "lcs": true, "knapsack": true}

// FuzzCatalogue: for any (algorithm, engine, n, p, seed), a spec that
// ValidateSpec refuses is refused by RunAlgorithm too, and one it admits
// runs without panicking, returns the same Outcome twice (Sched aside,
// which depends on timing) and, for the dynamic programs, the Value and
// Check of the other engine's run.
func FuzzCatalogue(f *testing.F) {
	names := Algorithms()
	engines := []Engine{EngineSim, EnginePalrt, EnginePRAM}
	f.Add(uint8(slices.Index(names, "closestpair")), uint8(slices.Index(engines, EnginePalrt)), 1, int8(0), uint64(0))
	f.Add(uint8(slices.Index(names, "editdistance")), uint8(slices.Index(engines, EngineSim)), 32, int8(5), uint64(7))
	f.Fuzz(func(t *testing.T, alg, eng uint8, n int, p8 int8, seed uint64) {
		name := names[int(alg)%len(names)]
		engine := engines[int(eng)%len(engines)]
		n %= fuzzMaxN + 1
		p := int(p8)
		if ValidateSpec(name, engine, n, p) != nil {
			if _, err := RunAlgorithm(name, engine, n, p, seed); err == nil {
				t.Fatalf("%s/%s n=%d p=%d: refused by ValidateSpec, run by RunAlgorithm", name, engine, n, p)
			}
			return
		}
		run := func(e Engine) Outcome {
			o, err := RunAlgorithm(name, e, n, p, seed)
			if err != nil {
				t.Fatalf("%s/%s n=%d p=%d seed=%d: admitted, then %v", name, e, n, p, seed, err)
			}
			o.Sched = nil
			return o
		}
		a, b := run(engine), run(engine)
		if a != b {
			t.Fatalf("%s/%s n=%d p=%d seed=%d: outcomes diverged: %+v vs %+v", name, engine, n, p, seed, a, b)
		}
		if !crossEngineDP[name] || engine == EnginePRAM {
			return
		}
		other := EnginePalrt
		if engine == EnginePalrt {
			other = EngineSim
		}
		if ValidateSpec(name, other, n, p) != nil {
			return
		}
		if o := run(other); o.Value != a.Value || o.Check != a.Check {
			t.Fatalf("%s n=%d p=%d seed=%d: %s value %d check %#x, %s value %d check %#x",
				name, n, p, seed, engine, a.Value, a.Check, other, o.Value, o.Check)
		}
	})
}
