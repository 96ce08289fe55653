package sim

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"lopram/internal/workload"
)

// TestRunLeavesNoGoroutine: however a run ends, Run stops the coroutine of
// every thread before it returns, so the goroutine count is back to where
// it was, and a body cut short is unwound with its deferred calls run.
func TestRunLeavesNoGoroutine(t *testing.T) {
	unwound := 0
	cases := []struct {
		name    string
		main    Func
		wantErr error // nil: the run succeeds, unless it panics
		panics  bool  // Run itself panics (a scheduler-side misuse)
		unwinds int   // bodies Run must unwind
	}{
		{name: "clean", main: msortFig(64)},
		{
			name: "body panics",
			main: func(tc *TC) {
				tc.Do(
					func(tc *TC) { defer func() { unwound++ }(); tc.Work(5) },
					func(tc *TC) { tc.Work(1); panic("boom") },
				)
			},
			wantErr: ErrThreadPanic,
			unwinds: 1,
		},
		{
			name: "deadlock",
			main: func(tc *TC) {
				f := tc.NewFuture()
				wait := func(tc *TC) { defer func() { unwound++ }(); tc.Await(f) }
				tc.Do(wait, wait)
			},
			wantErr: ErrDeadlock,
			unwinds: 2,
		},
		{
			name: "standard thread calls Do",
			main: func(tc *TC) {
				tc.Launch(
					func(tc *TC) { defer func() { unwound++ }(); tc.Work(1); tc.Do(func(tc *TC) {}) },
					func(tc *TC) { tc.Work(5) },
				)
			},
			panics:  true,
			unwinds: 1,
		},
		{
			name: "Work loop beside a failing thread",
			main: func(tc *TC) {
				tc.Spawn(func(tc *TC) {
					defer func() { unwound++ }()
					for {
						tc.Work(1)
					}
				})
				tc.Work(10)
				panic("fail")
			},
			wantErr: ErrThreadPanic,
			unwinds: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			unwound = 0
			base := runtime.NumGoroutine()
			m := New(Config{P: 2})
			err, panicked := runRecover(m, c.main)
			if panicked != c.panics {
				t.Fatalf("Run panicked = %v, want %v", panicked, c.panics)
			}
			if !c.panics && !errors.Is(err, c.wantErr) {
				t.Fatalf("Run error = %v, want %v", err, c.wantErr)
			}
			if got := runtime.NumGoroutine(); got > base {
				t.Errorf("%d goroutines after Run, %d before", got, base)
			}
			if unwound != c.unwinds {
				t.Errorf("%d bodies unwound, want %d", unwound, c.unwinds)
			}
			// The machine stays usable: a clean run after the failure
			// matches one on a fresh machine.
			want := New(Config{P: 2}).MustRun(msortFig(32))
			if got := m.MustRun(msortFig(32)); got.Steps != want.Steps || got.Work != want.Work || got.Threads != want.Threads {
				t.Errorf("rerun = %+v, want %+v", got, want)
			}
		})
	}
}

func runRecover(m *Machine, main Func) (err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	_, err = m.Run(main)
	return err, false
}

// TestCoroutinesPooled: a thread takes a coroutine when it first runs and
// gives it back when it finishes, so a run of 200 one-step threads on p
// processors needs only p coroutines, and none is left after Run.
func TestCoroutinesPooled(t *testing.T) {
	for _, p := range []int{1, 3} {
		m := New(Config{P: p})
		most := 0
		leaf := func(tc *TC) {
			most = max(most, len(tc.m.coros))
			tc.Work(1)
		}
		res := m.MustRun(func(tc *TC) {
			kids := make([]Func, 200)
			for i := range kids {
				kids[i] = leaf
			}
			tc.Spawn(kids...)
		})
		if res.Threads != 201 {
			t.Fatalf("p=%d: threads = %d, want 201", p, res.Threads)
		}
		if most != p {
			t.Errorf("p=%d: %d coroutines, want %d", p, most, p)
		}
		if len(m.coros) != 0 || len(m.idle) != 0 {
			t.Errorf("p=%d: after Run, %d coroutines and %d idle, want none", p, len(m.coros), len(m.idle))
		}
	}
}

// TestPreorderLessMatchesPaths: on random trees with chains a few hundred
// deep, preorderLess, which climbs parent and jump links, orders every
// pair of threads as the lexicographic order of their root paths does.
func TestPreorderLessMatchesPaths(t *testing.T) {
	r := workload.NewRNG(26)
	for trial := 0; trial < 20; trial++ {
		m := New(Config{P: 1})
		ths := []*thread{m.newThread(nil, nil)}
		for len(ths) < 400 {
			// Mostly extend a recent thread, so some chains run deep.
			parent := ths[len(ths)-1-r.Intn(min(len(ths), 3))]
			if r.Intn(8) == 0 {
				parent = ths[r.Intn(len(ths))]
			}
			ths = append(ths, m.newThread(parent, nil))
		}
		paths := make([][]int32, len(ths))
		for i, th := range ths {
			paths[i] = th.tc.Path()
		}
		for i, a := range ths {
			for j, b := range ths {
				if got, want := preorderLess(a, b), slices.Compare(paths[i], paths[j]) < 0; got != want {
					t.Fatalf("trial %d: preorderLess(%v, %v) = %v, want %v", trial, paths[i], paths[j], got, want)
				}
			}
		}
	}
}
