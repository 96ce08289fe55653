package jobcost

import (
	"sync"
	"testing"
	"time"

	"lopram/internal/core"
)

// TestPredictUnits pins the units of the shapes the queue's dispatch
// decisions are tuned on: the inline gate and the ordering policies'
// cost estimates read them.
func TestPredictUnits(t *testing.T) {
	for _, c := range []struct {
		alg    string
		engine core.Engine
		n, p   int
		units  float64
	}{
		{"reduce", core.EnginePRAM, 8, 1, 16},
		{"reduce", core.EngineSim, 64, 2, 127},
		{"reduce", core.EngineSim, 64, 8, 127}, // sim units ignore p
		{"editdistance", core.EngineSim, 32, 4, 1024},
		{"reduce", core.EnginePalrt, 64, 4, 22},    // n/p + log2 n
		{"mergesort", core.EnginePRAM, 16, 4, 256}, // n log² n
	} {
		est := Predict(c.alg, c.engine, c.n, c.p)
		if !est.Known || est.Units != c.units {
			t.Errorf("Predict(%s, %s, n=%d, p=%d) = %+v, want %v known units", c.alg, c.engine, c.n, c.p, est, c.units)
		}
	}
}

func TestPredictUnknown(t *testing.T) {
	for _, c := range []struct {
		alg    string
		engine core.Engine
		n      int
	}{
		{"prefixsums", core.EngineSim, 64}, // no sim prefix sums in the catalogue
		{"knapsack", core.EnginePRAM, 16},
		{"nosuchalgorithm", core.EngineSim, 64},
		{"reduce", core.EngineSim, 0},
		{"reduce", core.EngineSim, -5},
	} {
		if est := Predict(c.alg, c.engine, c.n, 2); est.Known || est.Units != 0 {
			t.Errorf("Predict(%s, %s, n=%d) = %+v, want the zero estimate", c.alg, c.engine, c.n, est)
		}
	}
}

// TestCalibratorPriorThenEWMA pins the calibrator's learning rule: the
// static prior until the first observation, which replaces it outright,
// then an exponentially weighted average at weight ewmaAlpha per
// observation. Non-positive inputs are ignored, and engines learn
// independently.
func TestCalibratorPriorThenEWMA(t *testing.T) {
	c := NewCalibrator()
	if got := c.NSPerUnit(core.EngineSim); got != priorSimNS {
		t.Fatalf("cold sim scale = %v, want the prior %v", got, priorSimNS)
	}
	if got := c.Wall(core.EnginePRAM, 100); got != 100*priorPRAMNS*time.Nanosecond {
		t.Fatalf("cold pram Wall(100) = %v, want %v", got, 100*priorPRAMNS*time.Nanosecond)
	}

	c.Observe(core.EngineSim, 100, 1000*time.Nanosecond) // 10 ns/unit
	if got := c.NSPerUnit(core.EngineSim); got != 10 {
		t.Fatalf("scale after one observation = %v, want 10 (the observation replaces the prior)", got)
	}
	c.Observe(core.EngineSim, 100, 2000*time.Nanosecond) // 20 ns/unit
	want := (1-ewmaAlpha)*10 + ewmaAlpha*20
	if got := c.NSPerUnit(core.EngineSim); got != want {
		t.Fatalf("scale after two observations = %v, want %v", got, want)
	}

	c.Observe(core.EngineSim, 0, time.Millisecond)
	c.Observe(core.EngineSim, 100, 0)
	c.Observe(core.EngineSim, -1, time.Millisecond)
	if got := c.NSPerUnit(core.EngineSim); got != want {
		t.Fatalf("non-positive observations moved the scale to %v, want %v", got, want)
	}
	if got := c.NSPerUnit(core.EnginePalrt); got != priorPalrtNS {
		t.Fatalf("palrt scale = %v after sim-only observations, want the prior %v", got, priorPalrtNS)
	}
	if got := c.Wall(core.EngineSim, 0); got != 0 {
		t.Fatalf("Wall(0 units) = %v, want 0", got)
	}
}

// TestCalibratorConcurrent: Observe and NSPerUnit on several goroutines
// lose no update and never read a torn or out-of-range scale. Every
// concurrent observation carries the same ratio, so the final scale is
// the one the same number of sequential observations reaches, whatever
// the interleaving. An engine outside sim, palrt and pram is not
// tracked: its observations are dropped and it reads the fallback.
func TestCalibratorConcurrent(t *testing.T) {
	const observers, perObserver = 8, 5
	c, want := NewCalibrator(), NewCalibrator()
	for _, cal := range []*Calibrator{c, want} {
		cal.Observe(core.EngineSim, 1, time.Millisecond) // 1e6 ns/unit
	}
	for i := 0; i < observers*perObserver; i++ {
		want.Observe(core.EngineSim, 1, time.Nanosecond)
	}

	start, stop := make(chan struct{}), make(chan struct{})
	var observing, reading sync.WaitGroup
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			<-start
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := c.NSPerUnit(core.EngineSim); s < 1 || s > 1e6 {
					t.Errorf("sim scale read %v mid-update, outside [1, 1e6]", s)
					return
				}
				if s := c.NSPerUnit(core.EnginePalrt); s != priorPalrtNS {
					t.Errorf("unobserved palrt scale read %v, want the prior %v", s, priorPalrtNS)
					return
				}
				if s := c.NSPerUnit("gpu"); s != fallbackNS {
					t.Errorf("untracked engine scale read %v, want the fallback %v", s, fallbackNS)
					return
				}
			}
		}()
	}
	for g := 0; g < observers; g++ {
		observing.Add(1)
		go func() {
			defer observing.Done()
			<-start
			for i := 0; i < perObserver; i++ {
				c.Observe(core.EngineSim, 1, time.Nanosecond)
				c.Observe("gpu", 1, time.Nanosecond)
			}
		}()
	}
	close(start)
	observing.Wait()
	close(stop)
	reading.Wait()
	if got, w := c.NSPerUnit(core.EngineSim), want.NSPerUnit(core.EngineSim); got != w {
		t.Fatalf("sim scale after %d concurrent observations = %v, want %v (an update was lost)",
			observers*perObserver, got, w)
	}
}
