package sim

// pendingQueue orders pending threads for global activation according to the
// machine's Policy. Most threads never need it: §3.1's local handoffs claim
// a thread soon after its parent creates it. So push only stages a thread,
// and pop heaps the staged threads that are still pending before it picks.
// Every policy is a strict total order on distinct threads, so the minimum
// over the still-pending threads does not depend on when each entered the
// heap: staging changes no pick, only how many threads are ever compared.
// A thread claimed after it entered the heap is removed lazily: no thread
// becomes pending again, so pop skips any that is no longer pending.
type pendingQueue struct {
	less  func(a, b *thread) bool
	items []*thread // a min-heap by less
	fresh []*thread // pushed since the last pop, not yet heaped
}

// reset empties the queue and orders it by policy.
func (q *pendingQueue) reset(policy Policy) {
	switch policy {
	case FIFO:
		q.less = func(a, b *thread) bool { return a.id < b.id }
	case LIFO:
		q.less = func(a, b *thread) bool { return a.id > b.id }
	default: // Preorder
		q.less = preorderLess
	}
	clear(q.items)
	q.items = q.items[:0]
	clear(q.fresh)
	q.fresh = q.fresh[:0]
}

func (q *pendingQueue) push(th *thread) { q.fresh = append(q.fresh, th) }

// pop returns the highest-priority thread still pending, or nil.
func (q *pendingQueue) pop() *thread {
	for _, th := range q.fresh {
		if th.state == Pending {
			q.items = heapPush(q.items, th, q.less)
		}
	}
	clear(q.fresh)
	q.fresh = q.fresh[:0]
	for len(q.items) > 0 {
		var th *thread
		th, q.items = heapPop(q.items, q.less)
		if th.state == Pending {
			return th
		}
	}
	return nil
}

// preorderLess reports whether a precedes b in the preorder traversal of
// the activation tree: an ancestor precedes its descendants, and below
// their deepest common ancestor the branch with the smaller child index
// comes first. It climbs parent and jump links instead of comparing
// stored paths, so a thread keeps no path of its own and a comparison
// costs O(log depth).
func preorderLess(a, b *thread) bool {
	switch {
	case a.depth > b.depth:
		if a = a.ancestorAt(b.depth); a == b {
			return false
		}
	case b.depth > a.depth:
		if b = b.ancestorAt(a.depth); a == b {
			return true
		}
	case a == b:
		return false
	}
	// a and b are distinct and equally deep, so their jumps are too.
	// Climb to the two children of their deepest common ancestor.
	for a.parent != b.parent {
		if a.jump != b.jump {
			a, b = a.jump, b.jump
		} else {
			a, b = a.parent, b.parent
		}
	}
	return a.childIdx < b.childIdx
}

// ancestorAt returns t's ancestor at the given depth, which must not
// exceed t's.
func (t *thread) ancestorAt(depth int32) *thread {
	for t.depth > depth {
		if t.jump.depth >= depth {
			t = t.jump
		} else {
			t = t.parent
		}
	}
	return t
}

// heapPush appends x to the binary min-heap h ordered by less and restores
// the heap order.
func heapPush[T any](h []T, x T, less func(a, b T) bool) []T {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !less(h[i], h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	return h
}

// heapPop removes the minimum of the non-empty binary min-heap h ordered
// by less, and returns it with the shrunk heap.
func heapPop[T any](h []T, less func(a, b T) bool) (T, []T) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	var zero T
	h[n] = zero
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && less(h[r], h[j]) {
			j = r
		}
		if !less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return top, h
}
