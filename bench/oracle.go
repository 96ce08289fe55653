package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
)

// checked is one answer the oracle verifies.
type checked struct {
	spec jobqueue.Spec
	out  outcome
}

// checker collects one client's answers for the oracle: every distinct
// key (every == 0) or one answer in every. Answers to a key seen before
// must equal the first answer; the first answer is verified after the
// run against a direct core.RunAlgorithm.
type checker struct {
	every      int
	seen       int
	first      map[jobqueue.Key]outcome
	samples    []checked
	mismatches []string
}

func newChecker(every int) *checker {
	return &checker{every: every, first: make(map[jobqueue.Key]outcome)}
}

// keyOf is the spec's cache identity, processor default resolved.
func keyOf(s *jobqueue.Spec) jobqueue.Key {
	p := s.P
	if p == 0 {
		p = core.ProcsFor(s.N)
	}
	return jobqueue.Key{Algorithm: s.Algorithm, N: s.N, P: p, Engine: s.Engine, Seed: s.Seed}
}

func (c *checker) observe(s *jobqueue.Spec, a *answer) {
	if !a.ok {
		return
	}
	if c.every > 0 {
		c.seen++
		if c.seen%c.every == 0 {
			c.samples = append(c.samples, checked{*s, a.out})
		}
		return
	}
	k := keyOf(s)
	prev, ok := c.first[k]
	if !ok {
		c.first[k] = a.out
		return
	}
	if prev != a.out {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s: answered %+v, earlier %+v", s, a.out, prev))
	}
}

// verify runs every collected answer's spec directly, one goroutine per
// core, and returns the mismatches, the answers that disagreed with each
// other included. It also returns how many answers it checked.
func verify(checkers []*checker) (mismatches []string, n int) {
	var todo []checked
	first := make(map[jobqueue.Key]outcome)
	for _, c := range checkers {
		mismatches = append(mismatches, c.mismatches...)
		todo = append(todo, c.samples...)
		for k, out := range c.first {
			if prev, ok := first[k]; ok {
				if prev != out {
					mismatches = append(mismatches, fmt.Sprintf("%v: clients disagree: %+v vs %+v", k, out, prev))
				}
				continue
			}
			first[k] = out
			todo = append(todo, checked{jobqueue.Spec{Algorithm: k.Algorithm, N: k.N, P: k.P, Engine: k.Engine, Seed: k.Seed}, out})
		}
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				t := todo[i]
				o, err := core.RunAlgorithm(t.spec.Algorithm, t.spec.Engine, t.spec.N, t.spec.P, t.spec.Seed)
				var msg string
				switch {
				case err != nil:
					msg = fmt.Sprintf("%s: direct run failed: %v", t.spec, err)
				case outcomeOf(o) != t.out:
					msg = fmt.Sprintf("%s: served %+v, direct run %+v", t.spec, t.out, outcomeOf(o))
				}
				if msg != "" {
					mu.Lock()
					mismatches = append(mismatches, msg)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return mismatches, len(todo)
}
