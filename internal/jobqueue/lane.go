package jobqueue

import "sync/atomic"

// lane is one run queue of a shard: a FIFO under the default dequeue
// policy, a binary min-heap ordered by the policy's Before under any
// other. It is guarded by the owning shard's mu, except n, the queued
// count, which dequeue probes read lock-free to skip empty lanes.
type lane struct {
	n     atomic.Int64
	deq   DequeuePolicy // nil: FIFO
	items []laneItem    // FIFO: the queue is items[head:]; heap: all of items
	head  int
}

// laneItem is one queued job and, on a heap lane, the view the policy
// ranks it by — built once at enqueue, so comparisons allocate nothing.
type laneItem struct {
	job  *Job
	view JobView
}

// push queues one item. A FIFO lane whose backing array is full slides
// its queue down over the popped prefix first, so a lane that never
// empties reuses one array instead of growing it without bound.
func (l *lane) push(it laneItem) {
	if l.head > 0 && len(l.items) == cap(l.items) {
		n := copy(l.items, l.items[l.head:])
		clear(l.items[n:])
		l.items, l.head = l.items[:n], 0
	}
	l.items = append(l.items, it)
	if l.deq != nil {
		l.up(len(l.items) - 1)
	}
	l.n.Add(1)
}

// pop removes and returns the lane's next job, nil when it is empty.
func (l *lane) pop() *Job {
	if l.head == len(l.items) {
		return nil
	}
	var it laneItem
	if l.deq == nil {
		it = l.items[l.head]
		l.items[l.head] = laneItem{}
		if l.head++; l.head == len(l.items) {
			l.items, l.head = l.items[:0], 0
		}
	} else {
		last := len(l.items) - 1
		it = l.items[0]
		l.items[0], l.items[last] = l.items[last], laneItem{}
		l.items = l.items[:last]
		l.down(0)
	}
	l.n.Add(-1)
	return it.job
}

// drain empties the lane and returns what it held, in no set order.
func (l *lane) drain() []laneItem {
	items := append([]laneItem(nil), l.items[l.head:]...)
	clear(l.items)
	l.items, l.head = l.items[:0], 0
	l.n.Store(0)
	return items
}

func (l *lane) less(i, j int) bool { return l.deq.Before(&l.items[i].view, &l.items[j].view) }

// up and down restore the heap order after a push or a pop.
func (l *lane) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !l.less(i, p) {
			return
		}
		l.items[i], l.items[p] = l.items[p], l.items[i]
		i = p
	}
}

func (l *lane) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(l.items) {
			return
		}
		if c+1 < len(l.items) && l.less(c+1, c) {
			c++
		}
		if !l.less(c, i) {
			return
		}
		l.items[i], l.items[c] = l.items[c], l.items[i]
		i = c
	}
}
