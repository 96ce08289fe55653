package sim

import (
	"errors"
	"fmt"
	"unsafe"

	"lopram/internal/crew"
)

// Policy selects the order in which the scheduler activates pending threads
// that have no local claim on a processor (i.e. beyond the parent-to-child
// handoffs of §3.1, which always apply).
type Policy int

const (
	// Preorder activates the pending thread that comes first in the
	// preorder traversal of the activation tree — the paper's default.
	Preorder Policy = iota
	// FIFO activates pending threads in global creation order; the paper
	// notes activation must be "consistent with order of creation", and
	// FIFO is the simplest such order. Used by the ablation study.
	FIFO
	// LIFO activates the most recently created pending thread first
	// (depth-first flavour). Not creation-order consistent; it exists to
	// quantify how much the paper's ordering rule matters.
	LIFO
)

func (p Policy) String() string {
	switch p {
	case Preorder:
		return "preorder"
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config configures a Machine.
type Config struct {
	// P is the number of processors; it must be >= 1. The LoPRAM premise
	// is p = O(log n), but the machine itself accepts any p so that the
	// experiments can probe what happens when the premise is violated.
	P int
	// Policy is the global activation order (default Preorder).
	Policy Policy
	// Trace enables recording of per-thread timestamps and per-processor
	// busy intervals. Figure reproduction and the Gantt renderer need it;
	// large benchmark runs can leave it off.
	Trace bool
}

// Machine is a deterministic LoPRAM simulator. A Machine may Run
// programs one after another, including after a failed Run; it is not
// safe for concurrent use.
type Machine struct {
	p      int
	policy Policy
	trace  bool

	now        int64
	nthreads   int   // threads created this run (pal + standard)
	lastDoneAt int64 // the instant the latest thread finished
	pending    pendingQueue
	events     []event // completion events, a min-heap by (at, id)
	running    int
	live       int       // created and not yet done (pal + standard)
	resumables []*thread // waiting parents whose block completed, FIFO
	std        stdPool   // live standard threads (§3.1)

	freeProcs []int32 // stack of free processor ids

	totalWork int64
	procBusy  []int64 // per-processor busy step counts

	req        request  // the running body's request (see request)
	slab       []thread // unused records of the current thread chunk
	coros      []*coro  // every coroutine started this run
	idle       []*coro  // coroutines free to carry the next thread
	sinceYield int      // body steps since the last GC yield (tick)

	memWords  int
	memPolicy crew.Policy
	mem       *crew.Memory

	traceRec *Trace
}

// New returns a machine with the given configuration.
func New(cfg Config) *Machine {
	if cfg.P < 1 {
		panic("sim: Config.P must be >= 1")
	}
	return &Machine{p: cfg.P, policy: cfg.Policy, trace: cfg.Trace}
}

// P returns the processor count.
func (m *Machine) P() int { return m.p }

// Result summarises a completed run.
type Result struct {
	// Steps is the simulated wall-clock time T_p: the step at which the
	// last thread finished.
	Steps int64
	// Work is the total declared work Σ Work(k) across all threads. For a
	// one-processor run Steps == Work + idle gaps (there are none), so
	// Work equals the sequential time of the same program when its
	// recursion shape is processor-independent.
	Work int64
	// Threads is the number of pal-threads created, including the root.
	Threads int
	// ProcBusy is the per-processor busy step count; Σ ProcBusy == Work.
	ProcBusy []int64
	// Trace is the recorded event trace, nil unless Config.Trace was set.
	Trace *Trace
}

// Utilization returns Work / (Steps * p): the fraction of processor-steps
// spent on declared work.
func (r Result) Utilization(p int) float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Work) / float64(r.Steps*int64(p))
}

// ErrDeadlock is returned when threads remain but none can make progress.
// A well-formed LoPRAM program cannot deadlock (children always eventually
// receive the parent's processor), so this indicates a program bug.
var ErrDeadlock = errors.New("sim: deadlock — live threads but no runnable work")

// threadPanic wraps a panic raised inside a thread body so Run can convert
// it into an error while letting unrelated scheduler panics propagate.
type threadPanic struct{ val any }

// ErrThreadPanic is wrapped by the error Run returns when a thread body
// panicked (e.g. a CREW Abort-policy violation).
var ErrThreadPanic = errors.New("sim: thread body panicked")

// threadChunk is how many thread records newThread allocates at once:
// as many as fill 8 KB, one of the allocator's size classes, so a chunk
// wastes no tail.
const threadChunk = 8192 / unsafe.Sizeof(thread{})

// Run executes the program whose root pal-thread body is main and returns
// the run summary. Time starts at step 1 with the root active, matching the
// numbering of Figure 1 of the paper.
//
// A panic inside any thread body — including the CREW auditor's Abort
// policy — aborts the run and is returned as an error wrapping
// ErrThreadPanic. However Run returns, it first stops the coroutine of
// every thread still live, unwinding those bodies (their deferred calls
// run), so a failed run leaves no goroutine behind.
func (m *Machine) Run(main Func) (res Result, err error) {
	defer func() {
		r := recover()
		m.stopCoros()
		m.slab = nil
		if r != nil {
			if tp, ok := r.(threadPanic); ok {
				err = fmt.Errorf("%w: %v", ErrThreadPanic, tp.val)
				return
			}
			panic(r)
		}
	}()
	m.now = 1
	m.nthreads = 0
	m.lastDoneAt = 0
	m.pending.reset(m.policy)
	m.events = m.events[:0]
	m.running = 0
	m.live = 0
	m.resumables = m.resumables[:0]
	m.std = stdPool{}
	m.totalWork = 0
	if m.memWords > 0 {
		m.mem = crew.NewMemory(m.memWords, m.memPolicy)
	}
	m.freeProcs = m.freeProcs[:0]
	for i := m.p - 1; i >= 0; i-- {
		m.freeProcs = append(m.freeProcs, int32(i))
	}
	m.procBusy = make([]int64, m.p)
	if m.trace {
		m.traceRec = newTrace(m.p)
	} else {
		m.traceRec = nil
	}

	m.pending.push(m.newThread(nil, main))

	for {
		// Global assignment phase: control-returns to completed-block
		// parents come first (§3.1: "control is returned to the
		// parent"), then free processors go to the earliest pending
		// thread under the configured policy.
		for len(m.freeProcs) > 0 {
			if parent := m.popResumable(); parent != nil {
				proc := m.freeProcs[len(m.freeProcs)-1]
				m.freeProcs = m.freeProcs[:len(m.freeProcs)-1]
				m.resume(parent, proc)
				continue
			}
			th := m.pending.pop()
			if th == nil {
				break
			}
			m.activate(th)
		}

		if m.running == 0 && m.std.busy() == 0 {
			if m.live == 0 {
				break // all threads done
			}
			// Live threads remain but none can run: a pending
			// thread lost in a malformed queue, or threads awaiting
			// a future nobody will resolve.
			return Result{}, ErrDeadlock
		}

		// Standard threads share whatever processors the pal-threads
		// leave free (§3.1 multitasking); with none free they stall
		// until the next pal event.
		if m.std.busy() > 0 {
			if f := len(m.freeProcs); f > 0 {
				m.advanceStd(f)
				m.drainEventsAt(m.now)
				continue
			}
			if len(m.events) == 0 {
				// Every processor is held by pal-threads that
				// will never complete a work segment: the
				// standard threads are starved forever.
				return Result{}, ErrDeadlock
			}
		}

		// Advance the clock to the next completion event and service
		// every thread completing at that instant, in id order (the
		// heap is keyed by (time, id) so pops are deterministic).
		m.now = m.events[0].at
		m.drainEventsAt(m.now)
	}

	// lastDoneAt is the instant the last thread finished; the elapsed
	// wall clock is that instant minus the start instant (time starts
	// at 1).
	res = Result{
		Work:     m.totalWork,
		Threads:  m.nthreads,
		ProcBusy: m.procBusy,
		Trace:    m.traceRec,
	}
	if m.lastDoneAt > 0 {
		res.Steps = m.lastDoneAt - 1
	}
	return res, nil
}

// drainEventsAt services every pal-thread whose work segment completes at
// time t, in id order.
func (m *Machine) drainEventsAt(t int64) {
	for len(m.events) > 0 && m.events[0].at == t {
		var ev event
		ev, m.events = heapPop(m.events, eventLess)
		th := ev.th
		if th.busy != t || th.state != Running {
			continue // stale entry
		}
		m.service(th)
	}
}

// MustRun is Run but panics on error; for tests and benchmarks.
func (m *Machine) MustRun(main Func) Result {
	r, err := m.Run(main)
	if err != nil {
		panic(err)
	}
	return r
}

// newThread creates a pending thread with the given body as parent's
// next child (the root when parent is nil). Its body starts when the
// thread first runs.
func (m *Machine) newThread(parent *thread, body Func) *thread {
	if len(m.slab) == 0 {
		m.slab = make([]thread, threadChunk)
	}
	th := &m.slab[0]
	m.slab = m.slab[1:]
	th.id = int32(m.nthreads)
	th.parent = parent
	th.proc = -1
	th.body = body
	th.jump = th
	if parent != nil {
		th.depth = parent.depth + 1
		// Jump two of the parent's jumps at once when they span equal
		// depths, else to the parent: jump depths then depend on depth
		// alone, and every ancestor is O(log depth) jumps away.
		th.jump = parent
		if j := parent.jump; parent.depth-j.depth == j.depth-j.jump.depth {
			th.jump = j.jump
		}
		if last := parent.lastChild; last != nil {
			th.childIdx = last.childIdx + 1
			last.nextSibling = th
		}
		parent.lastChild = th
		if parent.pendingHead == nil {
			parent.pendingHead = th
		}
	}
	m.nthreads++
	m.live++
	if m.traceRec != nil {
		m.traceRec.noteCreated(th, m.now)
	}
	return th
}

// activate assigns a free processor to the pending thread th and services it
// until it blocks, finishes, or becomes busy with work.
func (m *Machine) activate(th *thread) {
	proc := m.freeProcs[len(m.freeProcs)-1]
	m.freeProcs = m.freeProcs[:len(m.freeProcs)-1]
	m.activateOn(th, proc)
}

func (m *Machine) activateOn(th *thread, proc int32) {
	th.state = Running
	th.proc = proc
	m.running++
	if m.traceRec != nil {
		m.traceRec.noteActivated(th, m.now)
	}
	m.service(th)
}

// service resumes th's body and processes its requests until the thread
// becomes busy (Work), suspends (Do), or finishes. It must be called with
// th Running and holding a processor.
func (m *Machine) service(th *thread) {
	for {
		m.step(th)
		req := m.req
		switch req.kind {
		case reqWork:
			th.busy = m.now + req.units
			m.totalWork += req.units
			m.procBusy[th.proc] += req.units
			if m.traceRec != nil {
				m.traceRec.noteBusy(th, m.now, req.units)
			}
			m.events = heapPush(m.events, event{at: th.busy, id: th.id, th: th}, eventLess)
			return

		case reqLaunch:
			for _, body := range req.children {
				m.launchStd(th, body)
			}
			// Standard children start multitasking immediately;
			// the parent keeps its processor and continues.

		case reqDo:
			// Restart the scan for a pending child at the block's
			// first child, which newThread makes the head.
			th.pendingHead = nil
			for _, body := range req.children {
				m.pending.push(m.newThread(th, body))
			}
			th.blockOpen = true
			th.blockRemaining = int32(len(req.children))
			th.state = Waiting
			m.running--
			proc := th.proc
			th.proc = -1
			// §3.1: "the processor is assigned sequentially to the
			// children, in order of creation" — hand this processor
			// straight to the first pending child of the block.
			m.routeProc(proc, th)
			return

		case reqPanic:
			panic(threadPanic{val: req.panicVal})

		case reqAwait:
			f := req.fut
			if f.resolved {
				continue // resolved between the check and the yield
			}
			f.waiters = append(f.waiters, th)
			th.state = Waiting
			m.running--
			proc := th.proc
			th.proc = -1
			m.routeProc(proc, th)
			return

		case reqDone:
			th.state = Done
			m.lastDoneAt = m.now // time never runs backwards
			m.release(th)
			m.running--
			m.live--
			proc := th.proc
			th.proc = -1
			if m.traceRec != nil {
				m.traceRec.noteDone(th, m.now)
			}
			parent := th.parent
			if parent != nil && parent.blockOpen {
				parent.blockRemaining--
			}
			m.routeProc(proc, th)
			// If the completed block's parent was not resumed
			// directly (the processor went to a pending thread),
			// queue the control-return so the next freed processor
			// picks it up.
			if parent != nil && parent.state == Waiting && parent.blockOpen &&
				parent.blockRemaining == 0 && !parent.resumable {
				parent.resumable = true
				m.resumables = append(m.resumables, parent)
			}
			return
		}
	}
}

// routeProc disposes of a processor freed by thread th (which just waited or
// finished), applying the local handoff rules of §3.1 before falling back to
// the global queue:
//
//  1. th's own earliest pending child (waiting parents hand their processor
//     to their first child; finished threads hand it to a pending child they
//     spawned with nowait);
//  2. the next pending child of th's parent, in creation order (sibling
//     handoff: "the processor is assigned sequentially to the children");
//  3. if the parent's block is fully complete, the parent itself ("control
//     is returned to the parent");
//  4. otherwise the processor returns to the free pool and the main loop's
//     global assignment phase applies the configured policy.
func (m *Machine) routeProc(proc int32, th *thread) {
	if child := nextPendingChild(th); child != nil {
		m.activateOn(child, proc)
		return
	}
	if parent := th.parent; parent != nil {
		if child := nextPendingChild(parent); child != nil {
			m.activateOn(child, proc)
			return
		}
		if parent.state == Waiting && parent.blockOpen && parent.blockRemaining == 0 {
			m.resume(parent, proc)
			return
		}
	}
	if waiting := m.popResumable(); waiting != nil {
		m.resume(waiting, proc)
		return
	}
	m.freeProcs = append(m.freeProcs, proc)
}

// resume restarts a Waiting thread whose block has fully completed, giving
// it the processor (§3.1's "control is returned to the parent").
func (m *Machine) resume(parent *thread, proc int32) {
	parent.blockOpen = false
	parent.resumable = false
	parent.state = Running
	parent.proc = proc
	m.running++
	if m.traceRec != nil {
		m.traceRec.noteResumed(parent, m.now)
	}
	m.service(parent)
}

// popResumable returns the next queued control-return whose parent is still
// waiting, discarding stale entries (threads already resumed directly).
func (m *Machine) popResumable() *thread {
	for len(m.resumables) > 0 {
		th := m.resumables[0]
		m.resumables = m.resumables[1:]
		if th.resumable && th.state == Waiting {
			return th
		}
	}
	return nil
}

// nextPendingChild returns th's earliest still-pending child, advancing the
// pendingHead cursor past non-pending entries, or nil.
func nextPendingChild(th *thread) *thread {
	for c := th.pendingHead; c != nil; c = c.nextSibling {
		if c.state == Pending {
			th.pendingHead = c
			return c
		}
	}
	th.pendingHead = nil
	return nil
}

// event is a completion event: thread th finishes its Work segment at `at`.
type event struct {
	at int64
	id int32
	th *thread
}

// eventLess orders completion events by (time, thread id), so events due
// at the same instant are serviced in id order.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}
