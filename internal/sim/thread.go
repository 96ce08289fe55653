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
// time. Work, Do, Await and Launch need the scheduler (to charge time,
// hand the processor on, or start a standard thread), so each hands it a
// request and switches to it, as a finishing body does. Spawn and Resolve
// leave the thread on its processor, so they update the machine from the
// body, which runs on. Each body runs on a runtime coroutine (iter.Pull),
// so a switch is one coroutine switch each way instead of a handoff
// through the Go scheduler. A thread takes a coroutine when it first runs
// and gives it back when it finishes, for the next thread to reuse; a
// pending thread holds none. So a run needs one coroutine per thread that
// is running or waiting at once: an Algorithm 1 run on p processors uses
// p of them. Run stops every coroutine before it returns, so a failed run
// leaves nothing parked.
//
// The pending queue heaps a thread only if it is still pending when a
// global pick happens (pendingQueue); §3.1's handoffs claim most threads
// before that. In the catalogue's editdistance n=32 at seed 7 (991
// threads), 61 threads enter the heap and none is compared. A thread
// record is 88 bytes, 93 to an 8 KB slab chunk, and TC is the record
// itself. With a goroutine and two channels per thread, that job took
// 6.4–7.4 ms and 16.3k allocations a run. On pooled coroutines with every
// thread heaped, it took 2.58–2.76 ms, 4.4k allocations and 356 KB; with
// the staged queue, Spawn and Resolve in place, and dp's one-array graph
// and small per-cell closures, about 1.5 ms, 1.2k and 197 KB (go test
// -bench -cpu 2, alternating rounds, shared 2-core Xeon host).
//
// A coroutine switch bypasses the Go scheduler, so a run that keeps its
// processor busy gives the GC's fractional mark worker no turn until async
// preemption, and a serving daemon's heap grows while marking falls
// behind. The machine therefore yields the processor (runtime.Gosched)
// once every gcYieldEvery body steps, a step being a resumption or a
// Spawn or Resolve call; the constant's comment gives the measurement.
package sim

import "fmt"

// State is the lifecycle state of a pal-thread. The names mirror the node
// colours of Figure 1 of the paper: a Pending thread is "gray" (requested
// but not active), Running/Waiting threads are "black" (activated), and
// calls never created are "white" (they have no Thread at all).
type State uint8

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
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Func is the body of a pal-thread. It receives the thread context used to
// declare work and create children.
type Func func(*TC)

// reqKind discriminates the scheduler requests a thread body can issue.
type reqKind int

const (
	reqWork reqKind = iota
	reqDo
	reqLaunch
	reqDone
	reqPanic
	reqAwait
)

// request is what a thread body hands the scheduler when it switches to
// it. One body runs at a time, so the machine holds the one outstanding
// request (Machine.req): the body writes it and switches to the scheduler,
// which reads it before resuming any body.
type request struct {
	kind     reqKind
	units    int64   // reqWork
	children []Func  // reqDo, reqLaunch
	panicVal any     // reqPanic
	fut      *Future // reqAwait
}

// thread is the scheduler-side record of a pal-thread. Records come from a
// per-run slab (Machine.newThread), and the TC handed to the body is the
// record itself, so creating a thread allocates nothing of its own. A run
// creates one record per pal-thread, so the fields are ordered and sized
// to keep the record small: 88 bytes on 64-bit hosts.
type thread struct {
	parent *thread
	// jump is a skew-binary jump pointer to an ancestor (the root's is
	// itself), which lets preorderLess reach an ancestor in O(log depth)
	// steps.
	jump *thread

	// Children link in creation order through nextSibling. pendingHead is
	// the first child that may still be pending (nil past the last); the
	// scheduler hands freed processors to children starting there.
	lastChild   *thread
	nextSibling *thread
	pendingHead *thread

	// body starts on the coroutine co when the thread first runs. co is
	// nil while the thread is pending and after it finishes; while the
	// body runs, its TC reaches the machine through co.
	body Func
	co   *coro

	// busy is the time at which a pal-thread's current Work segment
	// completes, or a standard thread's remaining work.
	busy int64

	id int32
	// childIdx is the index among siblings in creation order, and depth
	// the distance from the root. The path from the root, the preorder
	// key, is recovered by walking parent links (preorderLess, TC.Path).
	childIdx int32
	depth    int32
	proc     int32 // processor currently assigned, -1 if none
	// blockRemaining counts unfinished children of the current Do block.
	// Spawn children are not counted (no implicit wait).
	blockRemaining int32

	state State
	// blockOpen is true between a Do issue and the completion of all the
	// block's children.
	blockOpen bool
	// resumable marks a waiting parent whose block completed but which
	// has not yet received a processor for its control-return.
	resumable bool
	// std marks a standard thread (§3.1): multitasked over free
	// processors rather than owning one.
	std bool
}

// TC is the context handed to a pal-thread body. Its methods are the
// simulated LoPRAM programming interface. A TC is only valid inside the body
// it was passed to, while that body runs. The methods that need the
// scheduler (Work, Do, Launch, Await) switch to it and return when the
// thread is resumed; if the run ends first, they unwind the body instead,
// running its deferred calls, and never return. Spawn and Resolve leave
// the thread on its processor, so they update the machine in place.
//
// Do, Spawn and Await are pal-thread primitives: a standard thread that
// calls one panics, which fails the run with an ErrThreadPanic error.
//
// A TC is its thread's scheduler record, seen through the methods below.
type TC thread

// Work declares that the thread performs units units of computation; the
// simulated clock charges one step per unit to the thread's processor.
// Non-positive units are a no-op.
func (tc *TC) Work(units int64) {
	if units <= 0 {
		return
	}
	tc.co.m.req = request{kind: reqWork, units: units}
	tc.yield()
}

// Do executes a palthreads block: the children are created in the order
// given, the thread suspends at the block's implicit wait, and it resumes
// once every child has completed. An empty block is a no-op.
func (tc *TC) Do(children ...Func) {
	tc.palOnly("Do")
	if len(children) == 0 {
		return
	}
	tc.co.m.req = request{kind: reqDo, children: children}
	tc.yield()
}

// Spawn executes a "palthreads { ... } nowait" block: the children are
// created but the thread continues immediately. There is no join primitive;
// per §3.1 execution of the machine concludes when no threads remain, which
// is how Algorithm 1 terminates. Spawn keeps no reference to the children
// slice, so the caller may reuse it.
func (tc *TC) Spawn(children ...Func) {
	tc.palOnly("Spawn")
	if len(children) == 0 {
		return
	}
	m := tc.co.m
	for _, body := range children {
		m.pending.push(m.newThread((*thread)(tc), body))
	}
	m.tick()
}

// Now returns the current simulated time step.
func (tc *TC) Now() int64 { return tc.co.m.now }

// P returns the machine's processor count.
func (tc *TC) P() int { return tc.co.m.p }

// Proc returns the processor the thread is currently running on.
func (tc *TC) Proc() int { return int(tc.proc) }

// ID returns the thread's id (creation order, root = 0).
func (tc *TC) ID() int { return int(tc.id) }

// Path returns the thread's position in the activation tree as the sequence
// of child indices from the root. The root has an empty path. Each call
// builds a fresh slice.
func (tc *TC) Path() []int32 {
	path := make([]int32, tc.depth)
	for t := (*thread)(tc); t.parent != nil; t = t.parent {
		path[t.depth-1] = t.childIdx
	}
	return path
}

// palOnly panics, inside the body, when a standard thread calls the
// pal-thread primitive name.
func (tc *TC) palOnly(name string) {
	if tc.std {
		panic("sim: standard threads cannot use pal-thread primitives: " + name)
	}
}

// yield hands the machine's pending request to the scheduler and returns
// when the scheduler resumes the thread. If Run stopped the coroutine
// instead, it unwinds the body with the coroStopped sentinel, which the
// coroutine's loop swallows.
func (tc *TC) yield() {
	if !tc.co.yield(struct{}{}) {
		panic(coroStopped{})
	}
}
