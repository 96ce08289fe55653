package dandc

import (
	"math"
	"slices"

	"lopram/internal/palrt"
	"lopram/internal/workload"
)

// Closest pair of points: the classical O(n log n) divide and conquer with
// T(n) = 2T(n/2) + Θ(n) (Case 2 like mergesort). The points are sorted by
// x once; each call splits its range at the median, recurses on the two
// halves — as a palthreads block above the grain — and on the way back up
// merges the halves' y orders, like mergesort, before the strip check. A
// run therefore sorts once, merges in one scratch buffer and allocates
// nothing below the parallel levels.

// ClosestPairSeq returns the minimum squared distance between any two of the
// given points (at least two required) using the sequential algorithm.
func ClosestPairSeq(pts []workload.Point) float64 {
	a := preparePoints(pts)
	return cpSeq(a, make([]workload.Point, len(a)))
}

// ClosestPair is the parallel version on rt.
func ClosestPair(rt *palrt.RT, pts []workload.Point) float64 {
	a := preparePoints(pts)
	return cpRec(rt, a, make([]workload.Point, len(a)), cpThreshold)
}

const cpThreshold = 1 << 10

// cpLeaf is the range size at or below which the recursion stops and
// solves its range by brute force, sorting it by y with an insertion sort.
// Correctness does not depend on its value. Of 3, 4, 6, 8, 12 and 16, 12
// and 16 measured fastest at n = 2656 and 12634, within noise of each
// other and about 7% faster than 3 at n = 12634.
const cpLeaf = 12

// preparePoints copies pts sorted by (x, y). The coordinates come from
// RNG.Float64, so there is no NaN to order.
func preparePoints(pts []workload.Point) []workload.Point {
	if len(pts) < 2 {
		panic("dandc: closest pair needs at least two points")
	}
	a := slices.Clone(pts)
	slices.SortFunc(a, func(p, q workload.Point) int {
		switch {
		case p.X < q.X:
			return -1
		case p.X > q.X:
			return 1
		case p.Y < q.Y:
			return -1
		case p.Y > q.Y:
			return 1
		}
		return 0
	})
	return a
}

// cpRec returns the minimum squared distance within a, which is sorted by
// x, and leaves a sorted by y; buf is scratch of len(a). Ranges longer than
// grain split as a palthreads block; rt == nil or a range of at most grain
// points descends through cpSeq. The closures live only here: were this
// level and cpSeq one function, dl and dr would escape to the heap in every
// call.
func cpRec(rt *palrt.RT, a, buf []workload.Point, grain int) float64 {
	n := len(a)
	if rt == nil || n <= grain {
		return cpSeq(a, buf)
	}
	mid := n / 2
	midX := a[mid].X // read before the halves reorder by y
	var dl, dr float64
	rt.Do(
		func() { dl = cpRec(rt, a[:mid], buf[:mid], grain) },
		func() { dr = cpRec(rt, a[mid:], buf[mid:], grain) },
	)
	return cpCombine(a, buf, mid, midX, math.Min(dl, dr))
}

// cpSeq is cpRec's sequential descent; it allocates nothing.
func cpSeq(a, buf []workload.Point) float64 {
	n := len(a)
	if n <= cpLeaf {
		d := BruteForceClosest(a)
		for i := 1; i < n; i++ {
			p, j := a[i], i
			for ; j > 0 && a[j-1].Y > p.Y; j-- {
				a[j] = a[j-1]
			}
			a[j] = p
		}
		return d
	}
	mid := n / 2
	midX := a[mid].X // read before the halves reorder by y
	d := math.Min(cpSeq(a[:mid], buf[:mid]), cpSeq(a[mid:], buf[mid:]))
	return cpCombine(a, buf, mid, midX, d)
}

// cpCombine merges a[:mid] and a[mid:], each sorted by y, into y order
// through buf, then checks the strip of points within sqrt(d) of the
// dividing line x = midX: in y order each needs comparing against at most
// 7 successors. It returns the range's minimum squared distance, given d,
// the minimum within each half.
func cpCombine(a, buf []workload.Point, mid int, midX, d float64) float64 {
	i, j, k := 0, mid, 0
	for i < mid && j < len(a) {
		if a[j].Y < a[i].Y {
			buf[k] = a[j]
			j++
		} else {
			buf[k] = a[i]
			i++
		}
		k++
	}
	k += copy(buf[k:], a[i:mid])
	copy(buf[k:], a[j:])
	copy(a, buf)

	dd := math.Sqrt(d)
	strip := buf[:0]
	for _, p := range a {
		if p.X >= midX-dd && p.X <= midX+dd {
			strip = append(strip, p)
		}
	}
	for i := range strip {
		for j := i + 1; j < len(strip) && strip[j].Y-strip[i].Y < dd; j++ {
			if ds := distSq(strip[i], strip[j]); ds < d {
				d = ds
				dd = math.Sqrt(d)
			}
		}
	}
	return d
}

func distSq(a, b workload.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// BruteForceClosest is the O(n²) oracle used by the tests, and the leaf
// case of the recursion.
func BruteForceClosest(pts []workload.Point) float64 {
	best := math.Inf(1)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := distSq(pts[i], pts[j]); d < best {
				best = d
			}
		}
	}
	return best
}
