package sim

import "sort"

// Trace records the observable schedule of a run: per-thread lifecycle
// timestamps (keyed by tree path) and per-processor busy intervals. It is
// the data source for the Figure 1 reproduction and the Gantt renderer.
type Trace struct {
	nodes     map[string]*NodeTrace
	order     []*NodeTrace // creation order, so indexed by thread id
	Intervals [][]Interval // per processor
}

// NodeTrace is the recorded lifecycle of one pal-thread.
type NodeTrace struct {
	ID          int
	Path        []int32
	CreatedAt   int64 // pal-requested (gray from here)
	ActivatedAt int64 // assigned a processor (black from here); -1 if never
	DoneAt      int64 // finished; -1 if never
	Resumptions []int64
	Proc        int // last processor the thread ran on
}

// Interval is a half-open busy interval [From, To) on one processor.
type Interval struct {
	From, To int64
	Thread   int
}

func newTrace(p int) *Trace {
	return &Trace{
		nodes:     make(map[string]*NodeTrace),
		Intervals: make([][]Interval, p),
	}
}

func pathKey(path []int32) string {
	b := make([]byte, 0, len(path)*2)
	for _, c := range path {
		// Child indices are small in practice; two bytes keep keys
		// unambiguous for indices up to 65535.
		b = append(b, byte(c>>8), byte(c))
	}
	return string(b)
}

// noteCreated records a new thread. Threads keep no path of their own, so
// the node's path is built here from the parent's node.
func (t *Trace) noteCreated(th *thread, at int64) {
	var path []int32
	if th.parent != nil {
		pp := t.order[th.parent.id].Path
		path = make([]int32, len(pp)+1)
		copy(path, pp)
		path[len(pp)] = th.childIdx
	}
	n := &NodeTrace{
		ID:          th.id,
		Path:        path,
		CreatedAt:   at,
		ActivatedAt: -1,
		DoneAt:      -1,
		Proc:        -1,
	}
	t.nodes[pathKey(path)] = n
	t.order = append(t.order, n)
}

func (t *Trace) noteActivated(th *thread, at int64) {
	n := t.order[th.id]
	n.ActivatedAt = at
	n.Proc = th.proc
}

func (t *Trace) noteResumed(th *thread, at int64) {
	n := t.order[th.id]
	n.Resumptions = append(n.Resumptions, at)
	n.Proc = th.proc
}

func (t *Trace) noteBusy(th *thread, from, units int64) {
	t.Intervals[th.proc] = append(t.Intervals[th.proc], Interval{
		From: from, To: from + units, Thread: th.id,
	})
}

// noteBusyStd records a standard thread's quantum on the processor it was
// multiplexed onto (standard threads hold no dedicated processor).
func (t *Trace) noteBusyStd(th *thread, proc int, from, units int64) {
	t.Intervals[proc] = append(t.Intervals[proc], Interval{
		From: from, To: from + units, Thread: th.id,
	})
}

func (t *Trace) noteDone(th *thread, at int64) {
	t.order[th.id].DoneAt = at
}

// Node returns the trace of the thread at the given tree path, or nil if no
// such thread was created.
func (t *Trace) Node(path ...int32) *NodeTrace {
	return t.nodes[pathKey(path)]
}

// Nodes returns all recorded threads in creation order.
func (t *Trace) Nodes() []*NodeTrace { return t.order }

// Color is the Figure 1 node colour of a call site at a given instant.
type Color int

const (
	// White: the call has not been pal-requested.
	White Color = iota
	// Gray: pal-requested but not yet activated.
	Gray
	// Black: activated (running, waiting or already finished).
	Black
)

func (c Color) String() string {
	switch c {
	case White:
		return "white"
	case Gray:
		return "gray"
	case Black:
		return "black"
	}
	return "?"
}

// ColorAt reports the Figure 1 colour of the call at path at time step t.
// Calls with no recorded thread are White.
func (t *Trace) ColorAt(step int64, path ...int32) Color {
	n := t.nodes[pathKey(path)]
	if n == nil || n.CreatedAt > step {
		return White
	}
	if n.ActivatedAt < 0 || n.ActivatedAt > step {
		return Gray
	}
	return Black
}

// MaxTime returns the largest timestamp in the trace.
func (t *Trace) MaxTime() int64 {
	var last int64
	for _, n := range t.order {
		if n.DoneAt > last {
			last = n.DoneAt
		}
		if n.CreatedAt > last {
			last = n.CreatedAt
		}
	}
	return last
}

// BusyAt returns the ids of threads occupying each processor at time step t
// (-1 for idle processors).
func (t *Trace) BusyAt(step int64) []int {
	out := make([]int, len(t.Intervals))
	for p := range out {
		out[p] = -1
		iv := t.Intervals[p]
		i := sort.Search(len(iv), func(i int) bool { return iv[i].To > step })
		if i < len(iv) && iv[i].From <= step {
			out[p] = iv[i].Thread
		}
	}
	return out
}
