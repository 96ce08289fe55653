package sim

// Futures: the §4.5 notification primitive. When a memoized thread probes a
// sub-problem that is already "in progress", "the thread registers a notify
// condition on solution … If not all the answers are available the thread
// enters a wait state until they become available." A Future is that notify
// condition: threads Await it (entering a wait state, releasing their
// processor) and the owning thread Resolves it exactly once, waking every
// waiter through the machine's control-return queue.
//
// Await and Resolve are scheduling actions, not work: they consume no
// simulated time beyond what the program declares with Work. The §4.6
// serialization cost of concurrent probes is the program's to charge
// (dp.SimOptions.CrewCounters shows the pattern).

// Future is a one-shot condition created inside a running thread via
// TC.NewFuture. It must only be used with the machine that created it.
type Future struct {
	resolved bool
	waiters  []*thread
}

// Resolved reports whether Resolve has been called.
func (f *Future) Resolved() bool { return f.resolved }

// NewFuture returns an unresolved future bound to the thread's machine.
func (tc *TC) NewFuture() *Future { return &Future{} }

// Resolve marks the future resolved and wakes all waiters through the
// machine's control-return queue. The resolving thread keeps its
// processor. Resolving an already-resolved future panics (inside the
// thread body, so Run reports it as an ErrThreadPanic error): each
// sub-problem is solved exactly once.
func (tc *TC) Resolve(f *Future) {
	if f.resolved {
		panic("sim: future resolved twice")
	}
	f.resolved = true
	m := tc.co.m
	for _, w := range f.waiters {
		if w.state == Waiting && !w.resumable {
			w.resumable = true
			m.resumables = append(m.resumables, w)
		}
	}
	f.waiters = nil
	m.tick()
}

// Await blocks the thread until the future resolves. Awaiting a resolved
// future returns immediately.
func (tc *TC) Await(f *Future) {
	tc.palOnly("Await")
	if f.resolved {
		return
	}
	tc.co.m.req = request{kind: reqAwait, fut: f}
	tc.yield()
}
