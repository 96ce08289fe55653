package core

import "testing"

func TestCatalogueValidation(t *testing.T) {
	if len(Algorithms()) < 8 {
		t.Fatalf("catalogue has %d algorithms, want >= 8", len(Algorithms()))
	}
	for _, name := range Algorithms() {
		engines := EnginesFor(name)
		if len(engines) == 0 {
			t.Errorf("%s: no engines", name)
		}
		for _, e := range engines {
			if MaxN(name, e) < 1 {
				t.Errorf("%s/%s: MaxN = %d", name, e, MaxN(name, e))
			}
			if err := ValidateSpec(name, e, 16, 0); err != nil {
				t.Errorf("%s/%s: valid spec rejected: %v", name, e, err)
			}
			if err := ValidateSpec(name, e, MaxN(name, e)+1, 2); err == nil {
				t.Errorf("%s/%s: oversized n admitted", name, e)
			}
		}
	}
	if _, err := ParseEngine("sim"); err != nil {
		t.Error(err)
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Error("ParseEngine accepted bogus engine")
	}
	if err := ValidateSpec("mergesort", EngineSim, 16, MaxProcs+1); err == nil {
		t.Error("p > MaxProcs admitted")
	}
}

// TestCatalogueSmallN: every spec ValidateSpec admits at n = 1, 2, 3 runs
// without panicking, on every engine and at several p; a spec the engine
// cannot run is refused at admission instead. closestpair on palrt needs
// two points, so n = 1 is refused there.
func TestCatalogueSmallN(t *testing.T) {
	if err := ValidateSpec("closestpair", EnginePalrt, 1, 0); err == nil {
		t.Error("closestpair/palrt admitted n=1")
	}
	for _, name := range Algorithms() {
		for _, e := range EnginesFor(name) {
			for n := 1; n <= 3; n++ {
				for _, p := range []int{0, 1, 2, 7} {
					if ValidateSpec(name, e, n, p) != nil {
						continue
					}
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%s/%s n=%d p=%d: admitted, then panicked: %v", name, e, n, p, r)
							}
						}()
						if _, err := RunAlgorithm(name, e, n, p, 1); err != nil {
							t.Errorf("%s/%s n=%d p=%d: %v", name, e, n, p, err)
						}
					}()
				}
			}
		}
	}
}

// TestRunDeterminism: same spec, same outcome — the property the result
// cache depends on.
func TestRunDeterminism(t *testing.T) {
	for _, name := range Algorithms() {
		for _, e := range EnginesFor(name) {
			n := 32
			if maxN := MaxN(name, e); n > maxN {
				n = maxN
			}
			a, err := RunAlgorithm(name, e, n, 2, 7)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, e, err)
			}
			b, err := RunAlgorithm(name, e, n, 2, 7)
			if err != nil {
				t.Fatalf("%s/%s rerun: %v", name, e, err)
			}
			// The scheduler's spawn/steal/inline split is timing-dependent,
			// but the number of children offered to it is a property of the
			// algorithm's task tree and must reproduce.
			if (a.Sched != nil) != (e == EnginePalrt) {
				t.Errorf("%s/%s: scheduler stats presence wrong: %+v", name, e, a.Sched)
			}
			if a.Sched != nil && b.Sched != nil && a.Sched.Offered() != b.Sched.Offered() {
				t.Errorf("%s/%s: offered children diverged: %d vs %d",
					name, e, a.Sched.Offered(), b.Sched.Offered())
			}
			a.Sched, b.Sched = nil, nil
			if a != b {
				t.Errorf("%s/%s: outcomes diverged: %+v vs %+v", name, e, a, b)
			}
		}
	}
}

// TestSimSpeedupShape: on the deterministic engine, more processors must
// not slow a job down, and mergesort at p=4 must beat p=1 — the serving
// layer's sanity check that it is dispatching onto a real parallel model.
func TestSimSpeedupShape(t *testing.T) {
	t1, err := RunAlgorithm("mergesort", EngineSim, 1<<14, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := RunAlgorithm("mergesort", EngineSim, 1<<14, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t4.Steps >= t1.Steps {
		t.Fatalf("p=4 steps %d >= p=1 steps %d", t4.Steps, t1.Steps)
	}
	if speedup := float64(t1.Steps) / float64(t4.Steps); speedup < 2 {
		t.Fatalf("speedup %.2f at p=4, want >= 2", speedup)
	}
}

// TestPRAMBaselineWorkSuboptimal: the Brent-emulated Hillis–Steele scan
// must do asymptotically more work than n — the paper's motivating gap.
func TestPRAMBaselineWorkSuboptimal(t *testing.T) {
	n := 1 << 10
	out, err := RunAlgorithm("prefixsums", EnginePRAM, n, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Work < int64(n)*5 {
		t.Fatalf("Hillis–Steele work %d for n=%d; expected Θ(n log n)", out.Work, n)
	}
}
