// Package sim implements a deterministic discrete-time simulator of the
// LoPRAM machine of §3 of the paper: p processors in MIMD mode executing a
// program structured as pal-threads (Parallel ALgorithmic threads).
//
// # Thread model (§3.1)
//
// Pal-threads form an ordered tree rooted at the main thread. A thread
// issues a palthreads block (Do) to create children in a specific order; the
// block has an implicit wait, so the thread suspends and its processor is
// handed to the first pending child. Children are activated in creation
// order as processors free up; "once a thread has been activated it remains
// active just like a standard thread". When the last child of a block
// completes, control returns to the parent on the freeing processor. Pending
// threads with no local claim on a processor are activated in the order
// given by the preorder traversal of the tree (the paper's default policy;
// FIFO and LIFO orders are provided for the ablation study).
//
// A nowait block (Spawn) creates children without suspending the parent —
// the paper's "palthreads { ... } nowait" construct, which Algorithm 1 (the
// DP scheduler) relies on.
//
// # Time
//
// Time advances in integer steps. Each active thread occupies one processor
// and consumes work declared through Work(k): k units take k steps. Creating
// children, merging bookkeeping and scheduling decisions are free unless the
// program declares work for them, so the program's cost model — not the
// simulator — decides what a step means. The simulator is event-driven and
// skips idle stretches, so simulated times far beyond the number of
// scheduler interactions are cheap.
//
// The simulated wall-clock of a run is exactly the T_p(n) analysed by
// Theorem 1 of the paper, which is what the experiment suite checks.
//
// # Execution on the host
//
// The scheduler and the thread bodies run in lockstep: one body runs at a
// time, until its next TC call, which hands a request to the scheduler.
// Each body runs on a runtime coroutine (iter.Pull), so a request is one
// coroutine switch each way instead of a handoff through the Go
// scheduler. A thread takes a coroutine when it first runs and gives it
// back when it finishes, for the next thread to reuse; a pending thread
// holds none. So a run needs one coroutine per thread that is running or
// waiting at once: an Algorithm 1 run on p processors uses p of them. With
// a goroutine and two channels per thread instead, the catalogue's
// editdistance n=32 (1090 threads) took 6.4–7.4 ms and 16.3k allocations
// a run; on pooled coroutines it takes 2.0–2.7 ms and 4.4k, most of them
// the program's own (go test -bench, shared 2-core Xeon host). Run stops
// every coroutine before it returns, so a failed run leaves nothing
// parked.
//
// A coroutine switch bypasses the Go scheduler, so a run that keeps its
// processor busy gives the GC's fractional mark worker no turn until async
// preemption, and a serving daemon's heap grows while marking falls
// behind. The scheduler therefore yields the processor (runtime.Gosched)
// once every gcYieldEvery body resumptions; the constant's comment gives
// the measurement.
package sim

import "fmt"

// State is the lifecycle state of a pal-thread. The names mirror the node
// colours of Figure 1 of the paper: a Pending thread is "gray" (requested
// but not active), Running/Waiting threads are "black" (activated), and
// calls never created are "white" (they have no Thread at all).
type State int32

const (
	// Pending: created by a palthreads block but not yet assigned a
	// processor (gray in Figure 1).
	Pending State = iota
	// Running: activated and occupying a processor.
	Running
	// Waiting: suspended at the implicit wait of a Do block while its
	// children execute; holds no processor.
	Waiting
	// Done: finished.
	Done
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Waiting:
		return "waiting"
	case Done:
		return "done"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Func is the body of a pal-thread. It receives the thread context used to
// declare work and create children.
type Func func(*TC)

// reqKind discriminates the scheduler requests a thread body can issue.
type reqKind int

const (
	reqWork reqKind = iota
	reqDo
	reqSpawn
	reqLaunch
	reqDone
	reqPanic
	reqResolve
	reqAwait
)

// request is what a thread body hands the scheduler at each yield point.
// One body runs at a time, so the machine holds the one outstanding
// request (Machine.req): the body writes it and switches to the scheduler,
// which reads it before resuming any body.
type request struct {
	kind     reqKind
	units    int64   // reqWork
	children []Func  // reqDo, reqSpawn, reqLaunch
	panicVal any     // reqPanic
	fut      *Future // reqResolve, reqAwait
}

// thread is the scheduler-side record of a pal-thread. Records come from a
// per-run slab (Machine.newThread), and the TC handed to the body is
// embedded, so creating a thread allocates nothing of its own.
type thread struct {
	tc     TC // the body's context; tc.th points back at this record
	id     int
	parent *thread
	// childIdx is the index among siblings in creation order, and depth
	// the distance from the root. The path from the root, the preorder
	// key, is recovered by walking parent links (preorderLess, TC.Path).
	// jump is a skew-binary jump pointer to an ancestor (the root's is
	// itself), which lets preorderLess reach an ancestor in O(log depth)
	// steps.
	childIdx int32
	depth    int32
	jump     *thread

	state State
	proc  int   // processor currently assigned, -1 if none
	busy  int64 // time at which the current Work segment completes

	// Children link in creation order through nextSibling. pendingHead is
	// the first child that may still be pending (nil past the last); the
	// scheduler hands freed processors to children starting there.
	lastChild   *thread
	nextSibling *thread
	pendingHead *thread

	// blockOpen is true between a Do issue and the completion of all the
	// block's children; blockRemaining counts unfinished children of the
	// current block. Spawn children are not counted (no implicit wait).
	blockOpen      bool
	blockRemaining int

	// body starts on the coroutine co when the thread first runs. co is
	// nil while the thread is pending and after it finishes.
	body Func
	co   *coro

	// heap bookkeeping for the pending queue (lazy deletion).
	inQueue bool
	// resumable marks a waiting parent whose block completed but which
	// has not yet received a processor for its control-return.
	resumable bool
	// std marks a standard thread (§3.1): multitasked over free
	// processors rather than owning one. busyRem is its remaining work.
	std     bool
	busyRem int64
}

// TC is the context handed to a pal-thread body. Its methods are the
// simulated LoPRAM programming interface. A TC is only valid inside the body
// it was passed to, while that body runs. The methods that issue a request
// (Work, Do, Spawn, Launch, Resolve, Await) switch to the scheduler and
// return when the thread is resumed; if the run ends first, they unwind
// the body instead, running its deferred calls, and never return.
type TC struct {
	m  *Machine
	th *thread
}

// Work declares that the thread performs units units of computation; the
// simulated clock charges one step per unit to the thread's processor.
// Non-positive units are a no-op.
func (tc *TC) Work(units int64) {
	if units <= 0 {
		return
	}
	tc.m.req = request{kind: reqWork, units: units}
	tc.yield()
}

// Do executes a palthreads block: the children are created in the order
// given, the thread suspends at the block's implicit wait, and it resumes
// once every child has completed. An empty block is a no-op.
func (tc *TC) Do(children ...Func) {
	if len(children) == 0 {
		return
	}
	tc.m.req = request{kind: reqDo, children: children}
	tc.yield()
}

// Spawn executes a "palthreads { ... } nowait" block: the children are
// created but the thread continues immediately. There is no join primitive;
// per §3.1 execution of the machine concludes when no threads remain, which
// is how Algorithm 1 terminates.
func (tc *TC) Spawn(children ...Func) {
	if len(children) == 0 {
		return
	}
	tc.m.req = request{kind: reqSpawn, children: children}
	tc.yield()
}

// Now returns the current simulated time step.
func (tc *TC) Now() int64 { return tc.m.now }

// P returns the machine's processor count.
func (tc *TC) P() int { return tc.m.p }

// Proc returns the processor the thread is currently running on.
func (tc *TC) Proc() int { return tc.th.proc }

// ID returns the thread's id (creation order, root = 0).
func (tc *TC) ID() int { return tc.th.id }

// Path returns the thread's position in the activation tree as the sequence
// of child indices from the root. The root has an empty path. Each call
// builds a fresh slice.
func (tc *TC) Path() []int32 {
	path := make([]int32, tc.th.depth)
	for t := tc.th; t.parent != nil; t = t.parent {
		path[t.depth-1] = t.childIdx
	}
	return path
}

// yield hands the request in tc.m.req to the scheduler and returns when
// the scheduler resumes the thread. If Run stopped the coroutine instead,
// it unwinds the body with the coroStopped sentinel, which the coroutine's
// loop swallows.
func (tc *TC) yield() {
	if !tc.th.co.yield(struct{}{}) {
		panic(coroStopped{})
	}
}
