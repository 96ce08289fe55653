package dp

import (
	"slices"
	"sync/atomic"
	"testing"

	"lopram/internal/palrt"
	"lopram/internal/workload"
)

// specsForTest returns a representative instance of every problem plus the
// oracle answer and the cell holding it.
type testCase struct {
	name   string
	spec   Spec
	answer int64
	cell   int
}

func buildCases(t *testing.T) []testCase {
	t.Helper()
	r := workload.NewRNG(42)

	a, b := workload.RelatedStrings(r, 40, 4, 8)
	ed := NewEditDistance(a, b)

	la, lb := workload.RelatedStrings(r, 35, 3, 10)
	lcs := NewLCS(la, lb)

	dims := workload.ChainDims(r, 12, 5, 40)
	mc := NewMatrixChain(dims)

	ws, vs := workload.Weights(r, 14, 10, 50)
	ks := NewKnapsack(ws, vs, 60)

	bw := workload.BSTFrequencies(r, 12, 20)
	bst := NewOptimalBST(bw)

	const fwN = 7
	adj := make([]int64, fwN*fwN)
	for i := range adj {
		adj[i] = Inf
		if r.Float64() < 0.4 {
			adj[i] = int64(1 + r.Intn(9))
		}
	}
	fw := NewFloydWarshall(fwN, adj)
	fwOracle := FloydWarshall(fwN, fw.Adj)

	data := workload.Int64s(r, 50)
	for i := range data {
		data[i] %= 1000
	}
	ps := NewPrefixSum(data)
	var psWant int64
	for _, v := range data {
		psWant += v
	}

	fib := NewFib(40)

	g := BalancedParens()
	cyk := NewCYK(g, "(()(()))")

	cases := []testCase{
		{"editdist", ed, EditDistance(a, b), ed.Cells() - 1},
		{"lcs", lcs, LCS(la, lb), lcs.Cells() - 1},
		{"matrixchain", mc, MatrixChain(dims), mc.Cells() - 1},
		{"knapsack", ks, Knapsack(ws, vs, 60), ks.Cells() - 1},
		{"optbst", bst, OptimalBST(bw), bst.Cells() - 1},
		{"floydwarshall", fw, fwOracle[fwN*fwN-1-0], fw.Cells() - 1},
		{"prefixsum", ps, psWant, ps.Cells() - 1},
		{"fib", fib, Fib(40), fib.Cells() - 1},
		{"cyk", cyk, 0, cyk.Cells() - 1}, // answer checked via Accepts below
	}
	return cases
}

// TestRunSeqMatchesOracles: the framework, driven purely by each Spec's
// declarative description, reproduces every hand-written DP.
func TestRunSeqMatchesOracles(t *testing.T) {
	for _, c := range buildCases(t) {
		vals, err := RunSeq(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		switch c.name {
		case "cyk":
			spec := c.spec.(*CYKSpec)
			if !spec.Accepts(vals) {
				t.Errorf("cyk: balanced input rejected")
			}
			if CYK(spec.G, spec.Input) != spec.Accepts(vals) {
				t.Errorf("cyk: framework disagrees with oracle")
			}
		case "floydwarshall":
			spec := c.spec.(*FloydWarshallSpec)
			want := FloydWarshall(spec.N, spec.Adj)
			got := spec.Dist(vals)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("floydwarshall: dist[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		default:
			if got := vals[c.cell]; got != c.answer {
				t.Errorf("%s: got %d, want %d", c.name, got, c.answer)
			}
		}
	}
}

// TestRunCounterMatchesSeq: Algorithm 1 with p workers computes the same
// table as the sequential sweep, cell for cell, for several p.
func TestRunCounterMatchesSeq(t *testing.T) {
	for _, c := range buildCases(t) {
		g := BuildGraph(c.spec)
		want, err := RunSeqOn(c.spec, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 8} {
			got, err := RunCounter(c.spec, g, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", c.name, p, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s p=%d: cell %d = %d, want %d", c.name, p, i, got[i], want[i])
				}
			}
		}
	}
}

// countingSpec wraps a Spec and counts the Compute calls of every cell.
type countingSpec struct {
	Spec
	calls []atomic.Int32
}

func (c *countingSpec) Compute(v int, get func(int) int64) int64 {
	c.calls[v].Add(1)
	return c.Spec.Compute(v, get)
}

// edgeless is a DP with no dependencies: every cell is a source.
type edgeless int

func (e edgeless) Cells() int                           { return int(e) }
func (edgeless) Deps(_ int, buf []int) []int            { return buf }
func (edgeless) Compute(v int, _ func(int) int64) int64 { return 7 * int64(v) }
func (edgeless) Cost(int) int64                         { return 1 }

// TestRunCounterComputesEachCellOnce: with the local handoff, where a
// worker computes the first successor its cell makes ready and sends the
// rest through the channel, every cell is still computed exactly once and
// the table equals RunSeq's. The shapes cover the 2-D tables, a DAG whose
// cells are all sources (nothing to hand off) and a chain (everything
// handed off), from one worker to many more workers than ready cells.
func TestRunCounterComputesEachCellOnce(t *testing.T) {
	r := workload.NewRNG(11)
	a, b := workload.RelatedStrings(r, 60, 4, 8)
	la, lb := workload.String(r, 50, 4), workload.String(r, 50, 4)
	ws, vs := workload.Weights(r, 20, 10, 50)
	data := workload.Int64s(r, 500)
	for i := range data {
		data[i] %= 1000
	}
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"editdistance", NewEditDistance(a, b)},
		{"lcs", NewLCS(la, lb)},
		{"knapsack", NewKnapsack(ws, vs, 80)},
		{"edgeless", edgeless(500)},
		{"chain", NewPrefixSum(data)},
	} {
		g := BuildGraph(c.spec)
		want, err := RunSeqOn(c.spec, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 8, 64} {
			cs := &countingSpec{Spec: c.spec, calls: make([]atomic.Int32, c.spec.Cells())}
			got, err := RunCounter(cs, g, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", c.name, p, err)
			}
			for v := range cs.calls {
				if k := cs.calls[v].Load(); k != 1 {
					t.Fatalf("%s p=%d: cell %d computed %d times", c.name, p, v, k)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s p=%d: table differs from RunSeq's", c.name, p)
			}
		}
	}
}

// TestRunLevelsMatchesSeq: the antichain-sweep ablation is also correct.
func TestRunLevelsMatchesSeq(t *testing.T) {
	rt := palrt.New(6)
	for _, c := range buildCases(t) {
		g := BuildGraph(c.spec)
		want, err := RunSeqOn(c.spec, g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunLevels(c.spec, g, rt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: cell %d = %d, want %d", c.name, i, got[i], want[i])
			}
		}
	}
}

// TestBuildGraphParallelMatches: chunked parallel construction produces the
// same graph as the sequential one, successor lists in the same order
// (ascending, which fixes Algorithm 1's spawn order).
func TestBuildGraphParallelMatches(t *testing.T) {
	rt := palrt.New(5)
	for _, c := range buildCases(t) {
		g1 := BuildGraph(c.spec)
		g2 := BuildGraphParallel(rt, c.spec)
		if g1.N() != g2.N() || g1.Edges() != g2.Edges() {
			t.Fatalf("%s: graph size mismatch", c.name)
		}
		for v := 0; v < g1.N(); v++ {
			a, b := g1.Succ(v), g2.Succ(v)
			if !slices.Equal(a, b) {
				t.Fatalf("%s: vertex %d successors %v vs %v", c.name, v, a, b)
			}
			if !slices.IsSorted(a) {
				t.Fatalf("%s: vertex %d successors %v not ascending", c.name, v, a)
			}
		}
	}
}

// TestAntichainGeometry asserts the paper's §4.3 structural claims on the
// concrete problems: diagonals for the 2-D string DPs, lengths for the
// interval DPs, rows for knapsack, a path for prefix sums.
func TestAntichainGeometry(t *testing.T) {
	ed := NewEditDistance("abcde", "xyz") // 6×4 table
	g := BuildGraph(ed)
	lc, err := g.LongestChain()
	if err != nil {
		t.Fatal(err)
	}
	if lc != 6+4-1 {
		t.Errorf("edit distance longest chain = %d, want 9 (anti-diagonals)", lc)
	}

	mc := NewMatrixChain([]int{3, 4, 5, 6, 7, 8}) // 5 matrices
	g = BuildGraph(mc)
	lc, err = g.LongestChain()
	if err != nil {
		t.Fatal(err)
	}
	if lc != 5 {
		t.Errorf("matrix chain longest chain = %d, want 5 (one per length)", lc)
	}
	layers, err := g.Antichains()
	if err != nil {
		t.Fatal(err)
	}
	for l, layer := range layers {
		if len(layer) != 5-l {
			t.Errorf("matrix chain layer %d width = %d, want %d", l, len(layer), 5-l)
		}
	}

	ks := NewKnapsack([]int{2, 3}, []int{10, 20}, 5) // 3 rows × 6 cols
	g = BuildGraph(ks)
	lc, err = g.LongestChain()
	if err != nil {
		t.Fatal(err)
	}
	if lc != 3 {
		t.Errorf("knapsack longest chain = %d, want 3 (rows are antichains)", lc)
	}

	ps := NewPrefixSum(make([]int64, 20))
	g = BuildGraph(ps)
	pr, err := g.ParallelismProfile()
	if err != nil {
		t.Fatal(err)
	}
	if pr.CriticalPath != 20 || pr.MaxWidth != 1 {
		t.Errorf("prefix sum profile = %+v, want pure chain", pr)
	}
}

func TestEditDistanceOracleKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int64
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		spec := NewEditDistance(c.a, c.b)
		vals, err := RunSeq(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Distance(vals); got != c.want {
			t.Errorf("spec EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCSOracleKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int64
	}{
		{"abcbdab", "bdcaba", 4},
		{"", "abc", 0},
		{"abc", "abc", 3},
		{"abc", "def", 0},
	}
	for _, c := range cases {
		if got := LCS(c.a, c.b); got != c.want {
			t.Errorf("LCS(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMatrixChainKnownValue(t *testing.T) {
	// CLRS example: dims 30,35,15,5,10,20,25 → 15125.
	dims := []int{30, 35, 15, 5, 10, 20, 25}
	if got := MatrixChain(dims); got != 15125 {
		t.Errorf("MatrixChain = %d, want 15125", got)
	}
	spec := NewMatrixChain(dims)
	vals, err := RunSeq(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.OptimalCost(vals); got != 15125 {
		t.Errorf("spec MatrixChain = %d, want 15125", got)
	}
}

func TestKnapsackKnownValue(t *testing.T) {
	// Classic: capacity 10, items (w,v): (5,10),(4,40),(6,30),(3,50) → 90.
	w := []int{5, 4, 6, 3}
	v := []int{10, 40, 30, 50}
	if got := Knapsack(w, v, 10); got != 90 {
		t.Errorf("Knapsack = %d, want 90", got)
	}
}

func TestOptimalBSTKnownValue(t *testing.T) {
	// Weights 34, 8, 50: optimal tree roots 34 high... verified by
	// exhaustive enumeration below.
	weights := []int{34, 8, 50}
	want := bstExhaustive(weights, 0, 2, 1)
	if got := OptimalBST(weights); got != want {
		t.Errorf("OptimalBST = %d, want %d", got, want)
	}
}

// bstExhaustive returns the minimum total weighted depth over all BST shapes
// (depth counted from 1 at the root).
func bstExhaustive(w []int, i, j, depth int) int64 {
	if i > j {
		return 0
	}
	best := int64(1) << 62
	for r := i; r <= j; r++ {
		c := int64(w[r])*int64(depth) +
			bstExhaustive(w, i, r-1, depth+1) +
			bstExhaustive(w, r+1, j, depth+1)
		if c < best {
			best = c
		}
	}
	return best
}

func TestOptimalBSTMatchesExhaustive(t *testing.T) {
	r := workload.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(8)
		w := workload.BSTFrequencies(r, n, 30)
		want := bstExhaustive(w, 0, n-1, 1)
		if got := OptimalBST(w); got != want {
			t.Fatalf("weights %v: OptimalBST = %d, exhaustive = %d", w, got, want)
		}
	}
}

func TestCYKKnownStrings(t *testing.T) {
	g := BalancedParens()
	for s, want := range map[string]bool{
		"()":       true,
		"(())":     true,
		"()()":     true,
		"(()())":   true,
		"(":        false,
		")(":       false,
		"())":      false,
		"((()))((": false,
	} {
		if got := CYK(g, s); got != want {
			t.Errorf("CYK(%q) = %v, want %v", s, got, want)
		}
		spec := NewCYK(g, s)
		vals, err := RunSeq(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Accepts(vals); got != want {
			t.Errorf("spec CYK(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestFloydWarshallTriangleInequality(t *testing.T) {
	r := workload.NewRNG(88)
	const n = 10
	adj := make([]int64, n*n)
	for i := range adj {
		adj[i] = Inf
		if r.Float64() < 0.3 {
			adj[i] = int64(1 + r.Intn(20))
		}
	}
	d := FloydWarshall(n, adj)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if d[i*n+k] < Inf && d[k*n+j] < Inf && d[i*n+j] > d[i*n+k]+d[k*n+j] {
					t.Fatalf("triangle inequality violated at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestIntervalIndexRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 5, 13} {
		ix := newIntervalIndex(n)
		if ix.cells() != n*(n+1)/2 {
			t.Fatalf("n=%d: cells = %d", n, ix.cells())
		}
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				id := ix.id(i, j)
				if seen[id] {
					t.Fatalf("n=%d: duplicate id %d", n, id)
				}
				seen[id] = true
				gi, gj := ix.interval(id)
				if gi != i || gj != j {
					t.Fatalf("n=%d: roundtrip (%d,%d) → %d → (%d,%d)", n, i, j, id, gi, gj)
				}
			}
		}
	}
}

func TestIntervalIndexLengthMajorIsTopological(t *testing.T) {
	// Every interval's dependencies have smaller packed ids.
	spec := NewMatrixChain([]int{2, 3, 4, 5, 6, 7, 8, 9})
	for v := 0; v < spec.Cells(); v++ {
		for _, d := range spec.Deps(v, nil) {
			if d >= v {
				t.Fatalf("dep %d of cell %d not earlier in packed order", d, v)
			}
		}
	}
}

// TestBuildGraphAllocs: BuildGraph counts out-degrees first and carves
// every successor list from one array, so it allocates the same few
// times (the degree counts, the Deps buffer, the graph and its three
// arrays) whatever the table's size. Appending edge by edge grew each
// list on its own: about two allocations per cell, 2116 at n=32.
func TestBuildGraphAllocs(t *testing.T) {
	count := func(n int) float64 {
		r := workload.NewRNG(uint64(n))
		spec := NewEditDistance(workload.String(r, n, 4), workload.String(r, n, 4))
		return testing.AllocsPerRun(20, func() { BuildGraph(spec) })
	}
	small, large := count(32), count(128)
	if small != large || small > 6 {
		t.Errorf("BuildGraph allocates %.0f times at n=32 and %.0f at n=128, want the same, at most 6", small, large)
	}
}
