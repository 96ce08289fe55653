package sim

import (
	"iter"
	"runtime"
)

// gcYieldEvery is how many body resumptions the scheduler makes between
// runtime.Gosched calls. A coroutine switch never enters the Go scheduler,
// so without the yield a run that holds its processor starves the GC's
// fractional mark worker until async preemption. Under the
// interactive-under-batch serving load on a 2-core host (GODEBUG=gctrace=1),
// coroutines without the yield raised concurrent mark p90 from 1.7 to
// 3.7 ms and heap goals above 4 MB from 26 of 1067 cycles to 196 of 1829;
// yielding every 256 resumptions cut those to 54 of 2091, and the daemon's
// RSS excess over goroutine threads from 15–16% to 4–7%. With the thread
// slab in place as well, removing the yield still raised the daemon's
// peak RSS in each of 3 alternating pairs (16.06, 15.79, 16.15 → 16.38,
// 16.70, 17.79 MB) and its CPU per job by 7%. It is a measured constant,
// not a knob.
const gcYieldEvery = 256

// coroStopped is the panic value that unwinds a body whose coroutine Run
// stopped; coro.run recovers it.
type coroStopped struct{}

// coro is a runtime coroutine that carries thread bodies, one at a time.
// The scheduler resumes it with next; the body's TC methods switch back
// with yield. When a body finishes, the coroutine parks at its loop's
// yield until it is resumed with the next thread, or stopped.
type coro struct {
	th    *thread // the thread being carried, nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// loop is the coroutine's body: it runs each thread it is given and
// yields the final request, until Run stops it.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		if c.run() || !yield(struct{}{}) {
			return
		}
	}
}

// run executes the carried thread's body and leaves its final request in
// the machine: reqDone, or reqPanic when the body panicked (a CREW
// Abort-policy violation, say), which fails the whole Run — the
// machine-level analogue of the paper's "suspension of execution". It
// reports whether the body was unwound because Run stopped the coroutine.
func (c *coro) run() (stopped bool) {
	th := c.th
	m := th.tc.m
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(coroStopped); ok {
				stopped = true
				return
			}
			m.req = request{kind: reqPanic, panicVal: r}
		}
	}()
	th.body(&th.tc)
	m.req = request{kind: reqDone}
	return false
}

// step resumes th's body until it issues its next request, which it
// leaves in m.req. A thread's first step binds it to an idle coroutine,
// or to a new one when none is idle.
func (m *Machine) step(th *thread) {
	c := th.co
	if c == nil {
		if n := len(m.idle); n > 0 {
			c = m.idle[n-1]
			m.idle = m.idle[:n-1]
		} else {
			c = new(coro)
			c.next, c.stop = iter.Pull(c.loop)
			m.coros = append(m.coros, c)
		}
		c.th = th
		th.co = c
	}
	if m.steps++; m.steps%gcYieldEvery == 0 {
		runtime.Gosched()
	}
	c.next()
}

// release returns the coroutine of th, which just finished, to the idle
// pool.
func (m *Machine) release(th *thread) {
	c := th.co
	th.co = nil
	c.th = nil
	m.idle = append(m.idle, c)
}

// stopCoros stops every coroutine of the run. An idle coroutine leaves its
// loop; one parked inside a body (a waiting thread, or any live thread of
// a failed run) unwinds the body first.
func (m *Machine) stopCoros() {
	for _, c := range m.coros {
		c.stop()
	}
	clear(m.coros)
	m.coros = m.coros[:0]
	clear(m.idle)
	m.idle = m.idle[:0]
}
