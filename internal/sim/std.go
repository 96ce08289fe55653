package sim

// Standard threads (§3.1): "Standard threads are executed simultaneously and
// independently of the number of cores available; they are executed in
// parallel if enough cores are available or by using multitasking if the
// thread count exceeds the degree of parallelism, just as in a regular RAM."
//
// The simulator models them as processor-sharing tasks: pal-threads keep
// their dedicated processors (once active they are never preempted), and at
// every instant the standard threads divide the remaining free processors —
// in parallel when enough are free, by deterministic round-robin
// multitasking otherwise, and stalled entirely while pal-threads hold all
// processors. Standard threads may perform Work and Launch further standard
// threads; they may not open palthreads blocks (Do/Spawn) or Await, which
// belong to the algorithmic tree (TC.palOnly fails the run).

// Launch creates standard threads with the given bodies. They begin
// executing immediately (there is no pending state for standard threads) and
// there is no join primitive: the machine runs until every thread, standard
// or pal, has finished. Both pal-threads and standard threads may Launch.
func (tc *TC) Launch(children ...Func) {
	if len(children) == 0 {
		return
	}
	tc.co.m.req = request{kind: reqLaunch, children: children}
	tc.yield()
}

// stdPool tracks live standard threads and their remaining work.
type stdPool struct {
	list  []*thread // live standard threads, creation order
	rotor int       // round-robin position for quantum distribution
}

func (sp *stdPool) add(th *thread) { sp.list = append(sp.list, th) }

// compact removes finished threads, preserving order and keeping the rotor
// pointing at the same logical successor.
func (sp *stdPool) compact() {
	if len(sp.list) == 0 {
		return
	}
	kept := sp.list[:0]
	newRotor := 0
	for i, th := range sp.list {
		if th.state == Done {
			if i < sp.rotor {
				newRotor--
			}
			continue
		}
		kept = append(kept, th)
	}
	sp.rotor += newRotor
	sp.list = kept
	if len(sp.list) == 0 {
		sp.rotor = 0
	} else {
		sp.rotor %= len(sp.list)
		if sp.rotor < 0 {
			sp.rotor += len(sp.list)
		}
	}
}

func (sp *stdPool) busy() int { return len(sp.list) }

// minRemaining returns the smallest remaining work among live threads.
func (sp *stdPool) minRemaining() int64 {
	min := int64(1) << 62
	for _, th := range sp.list {
		if th.busy < min {
			min = th.busy
		}
	}
	return min
}

// serviceStd resumes a standard thread's body and processes its requests
// until it declares work or finishes.
func (m *Machine) serviceStd(th *thread) {
	for {
		m.step(th)
		req := m.req
		switch req.kind {
		case reqWork:
			th.busy = req.units
			m.totalWork += req.units
			return

		case reqLaunch:
			for _, body := range req.children {
				m.launchStd(th, body)
			}

		case reqDone:
			th.state = Done
			m.lastDoneAt = m.now
			m.release(th)
			m.live--
			if m.traceRec != nil {
				m.traceRec.noteDone(th, m.now)
			}
			return

		case reqPanic:
			panic(threadPanic{val: req.panicVal})
		}
	}
}

// launchStd creates and immediately starts a standard thread.
func (m *Machine) launchStd(parent *thread, body Func) {
	th := m.newThread(parent, body)
	th.std = true
	th.state = Running
	if m.traceRec != nil {
		m.traceRec.noteActivated(th, m.now)
	}
	m.std.add(th)
	m.serviceStd(th)
	if th.state == Done {
		m.std.compact()
	}
}

// advanceStd progresses the standard-thread pool given f free processors,
// returning how far the clock moved. Invariants: f >= 1, pool non-empty.
//
// When f >= live threads, every thread runs at full speed for the largest
// stretch that changes nothing (bounded by the earliest pal event). When
// f < live threads, one time step's f quanta go to the next f threads in
// round-robin order — deterministic multitasking.
func (m *Machine) advanceStd(f int) int64 {
	s := m.std.busy()
	if f >= s {
		delta := m.std.minRemaining()
		if len(m.events) > 0 {
			if gap := m.events[0].at - m.now; gap < delta {
				delta = gap
			}
		}
		if delta < 1 {
			delta = 1
		}
		for i, th := range m.std.list {
			th.busy -= delta
			proc := m.freeProcs[i%f]
			m.procBusy[proc] += delta
			if m.traceRec != nil {
				m.traceRec.noteBusyStd(th, proc, m.now, delta)
			}
		}
		m.now += delta
		m.finishStdDue()
		return delta
	}

	// Multitasking: one step, f quanta, round-robin from the rotor.
	for i := 0; i < f; i++ {
		th := m.std.list[(m.std.rotor+i)%s]
		th.busy--
		proc := m.freeProcs[i]
		m.procBusy[proc]++
		if m.traceRec != nil {
			m.traceRec.noteBusyStd(th, proc, m.now, 1)
		}
	}
	m.std.rotor = (m.std.rotor + f) % s
	m.now++
	m.finishStdDue()
	return 1
}

// finishStdDue services every standard thread whose work segment completed.
func (m *Machine) finishStdDue() {
	finished := false
	for _, th := range m.std.list {
		if th.busy <= 0 && th.state == Running {
			m.serviceStd(th)
			if th.state == Done {
				finished = true
			}
		}
	}
	if finished {
		m.std.compact()
	}
}
