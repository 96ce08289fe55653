package dandc

import (
	"fmt"
	"testing"
	"testing/quick"

	"lopram/internal/palrt"
	"lopram/internal/workload"
)

func TestMergeSortMatchesSeq(t *testing.T) {
	r := workload.NewRNG(1)
	rt := palrt.New(8)
	for _, n := range []int{0, 1, 2, 3, 31, 100, 1000, 50000} {
		a := workload.Ints(r, n, 1000)
		b := append([]int(nil), a...)
		MergeSortSeq(a)
		mergeSortGrain(rt, b, 16, false) // tiny grain exercises parallel paths
		if !IsSorted(a) || !IsSorted(b) {
			t.Fatalf("n=%d: not sorted", n)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}

func TestMergeSortParMerge(t *testing.T) {
	r := workload.NewRNG(2)
	rt := palrt.New(8)
	for _, n := range []int{2, 17, 256, 10000} {
		a := workload.Ints(r, n, 50) // many duplicates stress the merge split
		b := append([]int(nil), a...)
		MergeSortSeq(a)
		mergeSortGrain(rt, b, 8, true)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: parallel-merge mismatch at %d: %d vs %d", n, i, a[i], b[i])
			}
		}
	}
}

func TestMergeSortAdversarialInputs(t *testing.T) {
	rt := palrt.New(4)
	for _, a := range [][]int{
		workload.Reversed(1000),
		make([]int, 500), // all equal
		workload.NearlySorted(workload.NewRNG(3), 1000, 20),
	} {
		b := append([]int(nil), a...)
		MergeSort(rt, b)
		if !IsSorted(b) {
			t.Fatal("not sorted")
		}
		// Multiset preserved: compare against sequential sort of a.
		MergeSortSeq(a)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("multiset changed at %d", i)
			}
		}
	}
}

func TestQuickSortMatchesSeq(t *testing.T) {
	r := workload.NewRNG(4)
	rt := palrt.New(8)
	for _, n := range []int{0, 1, 2, 33, 1000, 30000} {
		a := workload.Ints(r, n, 100)
		b := append([]int(nil), a...)
		QuickSortSeq(a)
		quickSortGrain(rt, b, 16)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}

func TestQuickSortProperty(t *testing.T) {
	rt := palrt.New(4)
	err := quick.Check(func(a []int) bool {
		b := append([]int(nil), a...)
		quickSortGrain(rt, b, 8)
		if !IsSorted(b) {
			return false
		}
		counts := map[int]int{}
		for _, v := range a {
			counts[v]++
		}
		for _, v := range b {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPolyMulOracle(t *testing.T) {
	a := []int64{1, 2, 3}
	b := []int64{4, 5}
	// (1+2x+3x²)(4+5x) = 4+13x+22x²+15x³
	got := PolyMulSeq(a, b)
	want := []int64{4, 13, 22, 15}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coef %d = %d, want %d", i, got[i], want[i])
		}
	}
	if PolyMulSeq(nil, b) != nil || PolyMulSeq(a, nil) != nil {
		t.Fatal("empty operand should give nil")
	}
}

func TestKaratsubaMatchesSchoolbook(t *testing.T) {
	r := workload.NewRNG(5)
	rt := palrt.New(8)
	for _, pair := range [][2]int{{1, 1}, {5, 3}, {64, 64}, {200, 130}, {501, 500}, {1000, 1}} {
		a := make([]int64, pair[0])
		b := make([]int64, pair[1])
		for i := range a {
			a[i] = int64(r.Intn(2001) - 1000)
		}
		for i := range b {
			b[i] = int64(r.Intn(2001) - 1000)
		}
		want := PolyMulSeq(a, b)
		for name, got := range map[string][]int64{
			"seq": KaratsubaSeq(a, b),
			"par": Karatsuba(rt, a, b),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s sizes %v: len %d want %d", name, pair, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s sizes %v: coef %d = %d, want %d", name, pair, i, got[i], want[i])
				}
			}
		}
	}
}

func TestStrassenMatchesSchoolbook(t *testing.T) {
	r := workload.NewRNG(6)
	rt := palrt.New(8)
	for _, n := range []int{1, 2, 7, 16, 65, 128, 150} {
		a := Mat{N: n, Data: workload.Floats(r, n*n)}
		b := Mat{N: n, Data: workload.Floats(r, n*n)}
		want := MatMulSeq(a, b)
		seq := StrassenSeq(a, b)
		par := Strassen(rt, a, b)
		if !MatEqual(want, seq, 1e-9*float64(n)) {
			t.Fatalf("n=%d: sequential Strassen diverged", n)
		}
		if !MatEqual(want, par, 1e-9*float64(n)) {
			t.Fatalf("n=%d: parallel Strassen diverged", n)
		}
	}
}

func TestStrassenPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	StrassenSeq(NewMat(2), NewMat(3))
}

func TestClosestPairMatchesBruteForce(t *testing.T) {
	r := workload.NewRNG(7)
	rt := palrt.New(8)
	for _, n := range []int{2, 3, 10, 100, 500} {
		pts := workload.Points(r, n)
		want := BruteForceClosest(pts)
		seq := ClosestPairSeq(pts)
		par := cpPar(rt, pts)
		if seq != want {
			t.Fatalf("n=%d: seq %v != brute %v", n, seq, want)
		}
		if par != want {
			t.Fatalf("n=%d: par %v != brute %v", n, par, want)
		}
	}
}

// cpPar forces the parallel path with a tiny grain.
func cpPar(rt *palrt.RT, pts []workload.Point) float64 {
	a := preparePoints(pts)
	return cpRec(rt, a, make([]workload.Point, len(a)), 4)
}

func TestClosestPairClusteredPoints(t *testing.T) {
	// Points on a near-vertical line force everything into the strip.
	rt := palrt.New(4)
	r := workload.NewRNG(8)
	pts := make([]workload.Point, 200)
	for i := range pts {
		pts[i] = workload.Point{X: 0.5 + r.Float64()*1e-6, Y: r.Float64()}
	}
	want := BruteForceClosest(pts)
	if got := cpPar(rt, pts); got != want {
		t.Fatalf("strip-heavy input: %v != %v", got, want)
	}
}

// TestClosestPairDegenerateInputs: inputs that stress the x split and the
// y merge — duplicate points (answer 0), every point on one vertical line,
// a handful of shared x values, and every size from 2 to 9 — give
// BruteForceClosest's exact answer through the sequential descent, the
// catalogue's grain and the tiny-grain parallel path.
func TestClosestPairDegenerateInputs(t *testing.T) {
	r := workload.NewRNG(10)
	rt := palrt.New(4)
	inputs := map[string][]workload.Point{}
	dup := workload.Points(r, 300)
	dup[217] = dup[41]
	inputs["duplicate"] = dup
	inputs["all-equal"] = []workload.Point{{X: 0.25, Y: 0.5}, {X: 0.25, Y: 0.5}, {X: 0.25, Y: 0.5}}
	vertical := make([]workload.Point, 2500)
	for i := range vertical {
		vertical[i] = workload.Point{X: 0.5, Y: r.Float64()}
	}
	inputs["vertical-line"] = vertical
	shared := make([]workload.Point, 3000)
	for i := range shared {
		shared[i] = workload.Point{X: float64(r.Intn(7)) / 7, Y: r.Float64()}
	}
	inputs["shared-x"] = shared
	grid := make([]workload.Point, 0, 40*40)
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			grid = append(grid, workload.Point{X: float64(i) / 40, Y: float64(j) / 40})
		}
	}
	inputs["grid"] = grid
	for n := 2; n <= 9; n++ {
		inputs[fmt.Sprintf("n=%d", n)] = workload.Points(r, n)
	}
	for name, pts := range inputs {
		want := BruteForceClosest(pts)
		for path, got := range map[string]float64{
			"seq":        ClosestPairSeq(pts),
			"parallel":   ClosestPair(rt, pts),
			"tiny-grain": cpPar(rt, pts),
		} {
			if got != want {
				t.Errorf("%s %s: %v, want %v", name, path, got, want)
			}
		}
	}
	if got := ClosestPairSeq(dup); got != 0 {
		t.Errorf("duplicate point: %v, want 0", got)
	}
}

func TestMaxSubarrayMatchesKadane(t *testing.T) {
	r := workload.NewRNG(9)
	rt := palrt.New(8)
	for _, n := range []int{1, 2, 17, 1000, 65536} {
		a := make([]int, n)
		for i := range a {
			a[i] = r.Intn(201) - 100
		}
		want := MaxSubarraySeq(a)
		got := msRec(rt, a, 16).best
		if got != want {
			t.Fatalf("n=%d: %d != %d", n, got, want)
		}
	}
}

func TestMaxSubarrayAllNegative(t *testing.T) {
	rt := palrt.New(4)
	a := []int{-5, -2, -9, -3}
	if got := MaxSubarray(rt, a); got != -2 {
		t.Fatalf("got %d, want -2 (best single element)", got)
	}
}

func TestMaxSubarrayProperty(t *testing.T) {
	rt := palrt.New(4)
	err := quick.Check(func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		a := make([]int, len(raw))
		for i, v := range raw {
			a[i] = int(v)
		}
		// Oracle: O(n²) enumeration.
		best := a[0]
		for i := range a {
			sum := 0
			for j := i; j < len(a); j++ {
				sum += a[j]
				if sum > best {
					best = sum
				}
			}
		}
		return msRec(rt, a, 4).best == best
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInsertionSortTiny(t *testing.T) {
	a := []int{3, 1, 2}
	insertionSort(a)
	if a[0] != 1 || a[1] != 2 || a[2] != 3 {
		t.Fatalf("a = %v", a)
	}
	insertionSort(nil) // must not panic
}

func TestPartitionPlacesPivot(t *testing.T) {
	r := workload.NewRNG(10)
	for trial := 0; trial < 100; trial++ {
		a := workload.Ints(r, 3+r.Intn(50), 30)
		p := partition(a)
		for i := 0; i < p; i++ {
			if a[i] > a[p] {
				t.Fatalf("left element %d > pivot %d", a[i], a[p])
			}
		}
		for i := p + 1; i < len(a); i++ {
			if a[i] < a[p] {
				t.Fatalf("right element %d < pivot %d", a[i], a[p])
			}
		}
	}
}
