// Benchmarks regenerating every figure and table of the LoPRAM paper, one
// benchmark family per experiment of EXPERIMENTS.md, plus the ablation
// benchmarks called out in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// Sub-benchmarks sweep the processor count, so `benchstat` comparisons show
// the speedup shape directly in the ns/op column.
package lopram_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lopram/internal/core"
	"lopram/internal/crew"
	"lopram/internal/dandc"
	"lopram/internal/dp"
	"lopram/internal/jobqueue"
	"lopram/internal/lopramhttp"
	"lopram/internal/master"
	"lopram/internal/memo"
	"lopram/internal/palrt"
	"lopram/internal/pram"
	"lopram/internal/sim"
	"lopram/internal/wire"
	"lopram/internal/workload"
)

// ---- E1: Figure 1 ----

func msortFig(n int) sim.Func {
	return func(tc *sim.TC) {
		tc.Work(1)
		if n <= 1 {
			return
		}
		tc.Do(msortFig(n/2), msortFig(n-n/2))
	}
}

// BenchmarkFig1MergesortTree regenerates the Figure 1 schedule (n=16, p=4).
func BenchmarkFig1MergesortTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := sim.New(sim.Config{P: 4, Trace: true})
		res := m.MustRun(msortFig(16))
		if res.Threads != 31 {
			b.Fatal("wrong tree")
		}
	}
}

// ---- E2: Figure 2 (frontier) ----

func BenchmarkFig2Frontier(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			cm := dandc.CostModel{Rec: dandc.Mergesort(), SpawnDepth: -1}
			for i := 0; i < b.N; i++ {
				m := sim.New(sim.Config{P: p})
				m.MustRun(cm.Program(256))
			}
		})
	}
}

// ---- E3–E6: Theorem 1 cases and Equation 5 ----

func benchTheorem(b *testing.B, rec master.IntRec, mode dandc.MergeMode, n int64) {
	b.Helper()
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			frontier := master.FrontierDepth(p, rec.A)
			cm := dandc.CostModel{Rec: rec, Mode: mode, SpawnDepth: frontier + 2}
			if mode == dandc.ParMerge {
				cm.MergeChunks = p
			}
			var steps int64
			for i := 0; i < b.N; i++ {
				m := sim.New(sim.Config{P: p})
				steps = m.MustRun(cm.Program(n)).Steps
			}
			b.ReportMetric(float64(steps), "sim-steps")
			b.ReportMetric(float64(rec.Seq(n))/float64(steps), "speedup")
		})
	}
}

// BenchmarkThm1Case1 regenerates the E3 table: T(n) = 4T(n/2) + n.
func BenchmarkThm1Case1(b *testing.B) {
	benchTheorem(b, dandc.Case1Rec(), dandc.SeqMerge, 1<<12)
}

// BenchmarkThm1Case2 regenerates the E4 table: mergesort.
func BenchmarkThm1Case2(b *testing.B) {
	benchTheorem(b, dandc.Mergesort(), dandc.SeqMerge, 1<<18)
}

// BenchmarkThm1Case3Seq regenerates the E5 table: no speedup.
func BenchmarkThm1Case3Seq(b *testing.B) {
	benchTheorem(b, dandc.Case3Rec(), dandc.SeqMerge, 1<<11)
}

// BenchmarkThm1Case3Par regenerates the E6 table: Equation 5.
func BenchmarkThm1Case3Par(b *testing.B) {
	benchTheorem(b, dandc.Case3Rec(), dandc.ParMerge, 1<<11)
}

// ---- E7: p = O(log n) premise ----

func BenchmarkLogBoundSaturation(b *testing.B) {
	rec := dandc.Mergesort()
	for _, p := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			frontier := master.FrontierDepth(p, rec.A)
			cm := dandc.CostModel{Rec: rec, SpawnDepth: frontier + 2}
			for i := 0; i < b.N; i++ {
				m := sim.New(sim.Config{P: p})
				m.MustRun(cm.Program(1 << 10))
			}
		})
	}
}

// ---- E8–E10, E14: parallel DP ----

func editDistSpec(n int) *dp.EditDistanceSpec {
	r := workload.NewRNG(8)
	a, bb := workload.RelatedStrings(r, n, 4, n/8)
	return dp.NewEditDistance(a, bb)
}

// BenchmarkDPEditDistance regenerates E8: Algorithm 1 on the simulator.
func BenchmarkDPEditDistance(b *testing.B) {
	spec := editDistSpec(96)
	g := dp.BuildGraph(spec)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				prog, _ := dp.Program(spec, g, dp.SimOptions{})
				m := sim.New(sim.Config{P: p})
				steps = m.MustRun(prog).Steps
			}
			b.ReportMetric(float64(steps), "sim-steps")
		})
	}
}

// BenchmarkDPEditDistanceRuntime is E8's real-hardware counterpart: the
// counter scheduler on goroutines.
func BenchmarkDPEditDistanceRuntime(b *testing.B) {
	spec := editDistSpec(600)
	g := dp.BuildGraph(spec)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dp.RunCounter(spec, g, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDPChain regenerates E9: the 1-D chain gains nothing.
func BenchmarkDPChain(b *testing.B) {
	spec := dp.NewPrefixSum(make([]int64, 400))
	g := dp.BuildGraph(spec)
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				prog, _ := dp.Program(spec, g, dp.SimOptions{})
				m := sim.New(sim.Config{P: p})
				steps = m.MustRun(prog).Steps
			}
			b.ReportMetric(float64(steps), "sim-steps")
		})
	}
}

// BenchmarkDPMatrixChain regenerates E10: the interval DP.
func BenchmarkDPMatrixChain(b *testing.B) {
	r := workload.NewRNG(10)
	spec := dp.NewMatrixChain(workload.ChainDims(r, 32, 4, 50))
	g := dp.BuildGraph(spec)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				prog, _ := dp.Program(spec, g, dp.SimOptions{})
				m := sim.New(sim.Config{P: p})
				steps = m.MustRun(prog).Steps
			}
			b.ReportMetric(float64(steps), "sim-steps")
		})
	}
}

// BenchmarkDPBuildGraph regenerates E14: parallel DAG construction.
func BenchmarkDPBuildGraph(b *testing.B) {
	spec := editDistSpec(256)
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rt := palrt.New(p)
			for i := 0; i < b.N; i++ {
				dp.BuildGraphParallel(rt, spec)
			}
		})
	}
}

// ---- E11: memoization ----

// BenchmarkMemoMatrixChain regenerates E11.
func BenchmarkMemoMatrixChain(b *testing.B) {
	r := workload.NewRNG(11)
	spec := dp.NewMatrixChain(workload.ChainDims(r, 48, 4, 40))
	root := spec.Cells() - 1
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := palrt.New(p)
				memo.Run(rt, spec, root)
			}
		})
	}
}

// ---- E12: CRCW-on-CREW ----

// BenchmarkCRCWSim regenerates E12: combining-tree cost per width.
func BenchmarkCRCWSim(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			contrib := make([]int64, k)
			for i := range contrib {
				contrib[i] = int64(i)
			}
			var steps int
			for i := 0; i < b.N; i++ {
				_, steps = crew.SimulateCRCW(contrib, crew.Sum)
			}
			b.ReportMetric(float64(steps), "crew-steps")
		})
	}
}

// ---- E13: real runtime wall clock ----

// BenchmarkRuntimeMergesort regenerates E13: ns/op across p IS the table.
func BenchmarkRuntimeMergesort(b *testing.B) {
	r := workload.NewRNG(13)
	base := workload.Ints(r, 1<<20, 1<<30)
	for _, p := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rt := palrt.New(p)
			buf := make([]int, len(base))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf, base)
				b.StartTimer()
				if p == 1 {
					dandc.MergeSortSeq(buf)
				} else {
					dandc.MergeSort(rt, buf)
				}
			}
		})
	}
}

// BenchmarkRuntimeStrassen: Case 1 on real hardware.
func BenchmarkRuntimeStrassen(b *testing.B) {
	r := workload.NewRNG(14)
	n := 256
	ma := dandc.Mat{N: n, Data: workload.Floats(r, n*n)}
	mb := dandc.Mat{N: n, Data: workload.Floats(r, n*n)}
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rt := palrt.New(p)
			for i := 0; i < b.N; i++ {
				if p == 1 {
					dandc.StrassenSeq(ma, mb)
				} else {
					dandc.Strassen(rt, ma, mb)
				}
			}
		})
	}
}

// BenchmarkRuntimeKaratsuba: Case 1 polynomial multiplication.
func BenchmarkRuntimeKaratsuba(b *testing.B) {
	r := workload.NewRNG(15)
	pa := workload.Int64s(r, 1<<13)
	pb := workload.Int64s(r, 1<<13)
	for i := range pa {
		pa[i] %= 1000
		pb[i] %= 1000
	}
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rt := palrt.New(p)
			for i := 0; i < b.N; i++ {
				if p == 1 {
					dandc.KaratsubaSeq(pa, pb)
				} else {
					dandc.Karatsuba(rt, pa, pb)
				}
			}
		})
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationSpawnPolicy: palthreads handoff vs spawn-everything.
func BenchmarkAblationSpawnPolicy(b *testing.B) {
	r := workload.NewRNG(21)
	base := workload.Ints(r, 1<<19, 1<<30)
	buf := make([]int, len(base))
	b.Run("handoff", func(b *testing.B) {
		rt := palrt.New(8)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(buf, base)
			b.StartTimer()
			dandc.MergeSort(rt, buf)
		}
	})
	b.Run("always-spawn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(buf, base)
			b.StartTimer()
			naiveSort(buf, make([]int, len(buf)))
		}
	})
}

func naiveSort(a, tmp []int) {
	if len(a) <= 1<<11 {
		dandc.MergeSortSeq(a)
		return
	}
	mid := len(a) / 2
	palrt.AlwaysSpawn(
		func() { naiveSort(a[:mid], tmp[:mid]) },
		func() { naiveSort(a[mid:], tmp[mid:]) },
	)
	i, j, k := 0, mid, 0
	for i < mid && j < len(a) {
		if a[j] < a[i] {
			tmp[k] = a[j]
			j++
		} else {
			tmp[k] = a[i]
			i++
		}
		k++
	}
	copy(tmp[k:], a[i:mid])
	copy(tmp[k+mid-i:], a[j:])
	copy(a, tmp)
}

// BenchmarkAblationDPScheduler: Algorithm 1 counters vs level barriers.
func BenchmarkAblationDPScheduler(b *testing.B) {
	spec := editDistSpec(400)
	g := dp.BuildGraph(spec)
	b.Run("counters", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dp.RunCounter(spec, g, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("level-barrier", func(b *testing.B) {
		rt := palrt.New(8)
		for i := 0; i < b.N; i++ {
			if _, err := dp.RunLevels(spec, g, rt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCounters: serialized cells vs raw atomics for the
// dependency counters.
func BenchmarkAblationCounters(b *testing.B) {
	b.Run("serialized-cell", func(b *testing.B) {
		var s crew.Serialized[int64]
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.Update(func(v int64) int64 { return v + 1 })
			}
		})
	})
	b.Run("atomic", func(b *testing.B) {
		var v atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				v.Add(1)
			}
		})
	})
}

// BenchmarkAblationActivationOrder: preorder vs FIFO vs LIFO global policy.
func BenchmarkAblationActivationOrder(b *testing.B) {
	cm := dandc.CostModel{Rec: dandc.Mergesort(), SpawnDepth: -1}
	for _, pol := range []sim.Policy{sim.Preorder, sim.FIFO, sim.LIFO} {
		b.Run(pol.String(), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				m := sim.New(sim.Config{P: 4, Policy: pol})
				steps = m.MustRun(cm.Program(1 << 10)).Steps
			}
			b.ReportMetric(float64(steps), "sim-steps")
		})
	}
}

// ---- substrate microbenchmarks ----

// BenchmarkSimSchedulerThroughput measures scheduler cost per pal-thread.
func BenchmarkSimSchedulerThroughput(b *testing.B) {
	cm := dandc.CostModel{Rec: dandc.FigureRec(), SpawnDepth: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := sim.New(sim.Config{P: 4})
		res := m.MustRun(cm.Program(1 << 10))
		if res.Threads != 2*(1<<10)-1 {
			b.Fatal("wrong thread count")
		}
	}
}

// BenchmarkSimCatalogue prices the simulator engine alone, through
// RunAlgorithm, on the sim specs the serving workloads run: editdistance
// n=32 is interactive-under-batch's flood, reduce n=256 its interactive
// user and the dispatch matrices' job, and mergesort n=4096 the top of
// compute-mix's sim sizes. Seeds vary per iteration, as in bench/'s
// calibration loop.
func BenchmarkSimCatalogue(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{
		{"editdistance", 32},
		{"reduce", 256},
		{"mergesort", 4096},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", c.name, c.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunAlgorithm(c.name, core.EngineSim, c.n, 0, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRNG measures the workload generator.
func BenchmarkRNG(b *testing.B) {
	r := workload.NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// ---- E15/E16: scan formulations and PRAM emulation ----

// BenchmarkScanDandC regenerates E15's D&C side: the work-optimal two-pass
// parallel scan on the host.
func BenchmarkScanDandC(b *testing.B) {
	r := workload.NewRNG(16)
	a := workload.Int64s(r, 1<<22)
	for i := range a {
		a[i] %= 1000
	}
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rt := palrt.New(p)
			for i := 0; i < b.N; i++ {
				if p == 1 {
					dandc.PrefixSumsSeq(a)
				} else {
					dandc.PrefixSums(rt, a)
				}
			}
		})
	}
}

// BenchmarkPRAMEmulation regenerates E16: Brent-emulated Hillis–Steele scan
// step counts vs the native LoPRAM scan's.
func BenchmarkPRAMEmulation(b *testing.B) {
	r := workload.NewRNG(17)
	in := workload.Int64s(r, 1<<12)
	for i := range in {
		in[i] %= 1000
	}
	prog := pram.HillisSteele{Input: in}
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var tp int64
			for i := 0; i < b.N; i++ {
				res := pram.Emulate(prog, p)
				tp = res.TimeP
			}
			b.ReportMetric(float64(tp), "emulated-steps")
		})
	}
}

// ---- selection: the Case 3 wall on a real algorithm ----

// BenchmarkRuntimeSelect compares sequential quickselect against the
// parallel-partition selection across p (Equation 5 on real data).
func BenchmarkRuntimeSelect(b *testing.B) {
	r := workload.NewRNG(18)
	a := workload.Ints(r, 1<<22, 1<<30)
	k := len(a) / 2
	for _, p := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rt := palrt.New(p)
			for i := 0; i < b.N; i++ {
				if p == 1 {
					dandc.SelectSeq(a, k)
				} else {
					dandc.Select(rt, a, k)
				}
			}
		})
	}
}

// BenchmarkRuntimeFFT: Case 2 on real hardware.
func BenchmarkRuntimeFFT(b *testing.B) {
	r := workload.NewRNG(19)
	x := make([]complex128, 1<<16)
	for i := range x {
		x[i] = complex(r.Float64(), r.Float64())
	}
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rt := palrt.New(p)
			for i := 0; i < b.N; i++ {
				if p == 1 {
					dandc.FFTSeq(x)
				} else {
					dandc.FFT(rt, x)
				}
			}
		})
	}
}

// BenchmarkStdThreads measures the standard-thread multitasking scheduler.
func BenchmarkStdThreads(b *testing.B) {
	for _, s := range []int{4, 64} {
		b.Run(fmt.Sprintf("threads=%d", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := sim.New(sim.Config{P: 4})
				m.MustRun(func(tc *sim.TC) {
					kids := make([]sim.Func, s)
					for k := range kids {
						kids[k] = func(tc *sim.TC) { tc.Work(100) }
					}
					tc.Launch(kids...)
				})
			}
		})
	}
}

// BenchmarkJobQueueThroughput measures the dispatch service's end-to-end
// jobs/sec across the (workers, shards) matrix: each iteration fans a
// batch of small deterministic simulator jobs out from four concurrent
// submitters and waits for all of them — concurrent submission is what
// makes dispatch-path contention (shard locks, run-queue hand-off)
// visible next to the execution cost. The result cache is disabled so
// every job executes. workers=4/shards=4 against workers=4/shards=1 is
// the sharding acceptance pair; cmd/benchgate gates both via
// BENCH_BASELINE.json.
func BenchmarkJobQueueThroughput(b *testing.B) {
	var seed atomic.Uint64
	for _, c := range []struct{ workers, shards int }{
		{1, 1}, {4, 1}, {4, 4}, {16, 4},
	} {
		b.Run(fmt.Sprintf("workers=%d/shards=%d", c.workers, c.shards), func(b *testing.B) {
			q := jobqueue.New(jobqueue.Config{
				Workers: c.workers, Shards: c.shards,
				QueueDepth: 8192, CacheSize: -1,
			})
			defer q.Close()
			const batch = 64
			const submitters = 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := 0; s < submitters; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						jobs := make([]*jobqueue.Job, 0, batch/submitters)
						for j := 0; j < batch/submitters; j++ {
							job, err := q.Submit(jobqueue.Spec{
								Algorithm: "reduce", N: 256, P: 4,
								Engine: core.EngineSim, Seed: seed.Add(1),
							})
							if err != nil {
								b.Error(err)
								return
							}
							jobs = append(jobs, job)
						}
						for _, job := range jobs {
							if _, err := job.Wait(context.Background()); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*batch)/secs, "jobs/sec")
			}
		})
	}
}

// BenchmarkJobQueueClasses measures dispatch throughput under the
// deficit-weighted-round-robin class discipline across a (classes,
// shards) matrix: the default 2-class strict/weighted set vs a 4-class
// all-weighted set, with four concurrent submitters spraying jobs
// round-robin across every class. It prices the DWRR bookkeeping and the
// per-class admission lanes next to BenchmarkJobQueueThroughput's
// default-class numbers; cmd/benchgate gates both via
// BENCH_BASELINE.json.
func BenchmarkJobQueueClasses(b *testing.B) {
	classSets := map[int]jobqueue.ClassSet{
		2: nil, // the default strict-interactive/batch pair
		4: {
			{Name: "gold", Weight: 8},
			{Name: "silver", Weight: 4},
			{Name: "bronze", Weight: 2},
			{Name: "scavenger", Weight: 1},
		},
	}
	var seed atomic.Uint64
	for _, c := range []struct{ classes, shards int }{
		{2, 1}, {2, 4}, {4, 1}, {4, 4},
	} {
		b.Run(fmt.Sprintf("classes=%d/shards=%d", c.classes, c.shards), func(b *testing.B) {
			set := classSets[c.classes]
			q := jobqueue.New(jobqueue.Config{
				Workers: 4, Shards: c.shards,
				QueueDepth: 8192, CacheSize: -1,
				Classes: set,
			})
			defer q.Close()
			names := make([]jobqueue.Class, 0, c.classes)
			for _, cs := range q.Classes() {
				names = append(names, cs.Name)
			}
			const batch = 64
			const submitters = 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := 0; s < submitters; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						jobs := make([]*jobqueue.Job, 0, batch/submitters)
						for j := 0; j < batch/submitters; j++ {
							job, err := q.Submit(jobqueue.Spec{
								Algorithm: "reduce", N: 256, P: 4,
								Engine: core.EngineSim, Seed: seed.Add(1),
								Priority: names[(s+j)%len(names)],
							})
							if err != nil {
								b.Error(err)
								return
							}
							jobs = append(jobs, job)
						}
						for _, job := range jobs {
							if _, err := job.Wait(context.Background()); err != nil {
								b.Error(err)
								return
							}
						}
					}(s)
				}
				wg.Wait()
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*batch)/secs, "jobs/sec")
			}
		})
	}
}

// BenchmarkJobQueueResize prices the epoch-based placement table's
// steady state: dispatch throughput on a 4-shard table reached by a live
// 1→4 resize (carried-over rings and retention, re-dealt workers; the
// result cache is disabled so every job executes, as in the other
// dispatch matrices) against a queue cold-started at 4 shards. The two must be within noise
// of each other — a resized table is a first-class table, not a degraded
// one; cmd/benchgate gates both via BENCH_BASELINE.json. The resize
// itself happens outside the timed region: what is measured is what the
// table leaves behind.
func BenchmarkJobQueueResize(b *testing.B) {
	var seed atomic.Uint64
	run := func(b *testing.B, q *jobqueue.Queue) {
		const batch = 64
		const submitters = 4
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					jobs := make([]*jobqueue.Job, 0, batch/submitters)
					for j := 0; j < batch/submitters; j++ {
						job, err := q.Submit(jobqueue.Spec{
							Algorithm: "reduce", N: 256, P: 4,
							Engine: core.EngineSim, Seed: seed.Add(1),
						})
						if err != nil {
							b.Error(err)
							return
						}
						jobs = append(jobs, job)
					}
					for _, job := range jobs {
						if _, err := job.Wait(context.Background()); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N*batch)/secs, "jobs/sec")
		}
	}
	b.Run("table=cold4", func(b *testing.B) {
		q := jobqueue.New(jobqueue.Config{
			Workers: 4, Shards: 4,
			QueueDepth: 8192, CacheSize: -1,
		})
		defer q.Close()
		run(b, q)
	})
	b.Run("table=resized1to4", func(b *testing.B) {
		q := jobqueue.New(jobqueue.Config{
			Workers: 4, Shards: 1,
			QueueDepth: 8192, CacheSize: -1,
		})
		defer q.Close()
		// Warm the 1-shard table so the resize migrates real state
		// (retention entries and latency samples).
		for w := 0; w < 64; w++ {
			job, err := q.Submit(jobqueue.Spec{
				Algorithm: "reduce", N: 256, P: 4,
				Engine: core.EngineSim, Seed: seed.Add(1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := job.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := q.Resize(4); err != nil {
			b.Fatal(err)
		}
		run(b, q)
	})
}

// BenchmarkJobQueuePolicies prices the dequeue under each pluggable
// policy across the (policy, shards) matrix: four concurrent submitters
// of unique sub-µs PRAM jobs (cache disabled, so every one is queued,
// dequeued and settled), the job BenchmarkJobQueueSettle runs, so the
// numbers price the lanes rather than the simulator. policy=default pops
// FIFO lanes; fcfs/sjf/edf push and pop policy-ordered heap lanes and
// pay the cost calibrator on every submit and settle. cmd/benchgate
// gates every cell via BENCH_BASELINE.json, and CI pins edf/shards=4 at
// no less than 0.7x default/shards=4.
func BenchmarkJobQueuePolicies(b *testing.B) {
	var seed atomic.Uint64
	for _, policy := range []string{"default", "fcfs", "sjf", "edf"} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("policy=%s/shards=%d", policy, shards), func(b *testing.B) {
				q := jobqueue.New(jobqueue.Config{
					Workers: 4, Shards: shards,
					QueueDepth: 8192, CacheSize: -1,
					Policies: jobqueue.Policies{Dequeue: policy},
				})
				defer q.Close()
				const batch = 64
				const submitters = 4
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for s := 0; s < submitters; s++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							jobs := make([]*jobqueue.Job, 0, batch/submitters)
							for j := 0; j < batch/submitters; j++ {
								job, err := q.Submit(jobqueue.Spec{
									Algorithm: "reduce", N: 8, P: 1,
									Engine: core.EnginePRAM, Seed: seed.Add(1),
								})
								if err != nil {
									b.Error(err)
									return
								}
								jobs = append(jobs, job)
							}
							for _, job := range jobs {
								if _, err := job.Wait(context.Background()); err != nil {
									b.Error(err)
									return
								}
							}
						}()
					}
					wg.Wait()
				}
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(b.N*batch)/secs, "jobs/sec")
				}
			})
		}
	}
}

// BenchmarkJobQueueHTTPJobsPerSec measures end-to-end HTTP ingest
// throughput across the three submit shapes — mode=single (one POST
// /v1/jobs?wait=1 per job), mode=batch (one POST /v1/jobs:batch array
// per submitter) and mode=stream (one POST /v1/jobs:stream NDJSON
// connection per submitter) — with four concurrent submitters against a
// real httptest server, 256 cheap executing jobs per op (sub-µs pram
// reduce, cache disabled), so the serving overhead the batch path
// amortizes (request framing, handler dispatch, per-job response
// encoding) dominates the numbers. mode=binary is the same one
// connection per submitter speaking the length-prefixed binary wire
// protocol through wire.Client instead of NDJSON. This is the
// acceptance benchmark for the ingest fast paths: mode=batch must
// sustain at least 3× mode=single jobs/sec, and mode=binary at least
// 2× mode=stream — and cmd/benchgate gates all four modes via
// BENCH_BASELINE.json plus -min-ratio checks on both ratios.
func BenchmarkJobQueueHTTPJobsPerSec(b *testing.B) {
	const jobs = 256
	const submitters = 4
	const perSub = jobs / submitters
	var seed atomic.Uint64
	specLine := func() string {
		return fmt.Sprintf(`{"algorithm":"reduce","n":8,"p":1,"engine":"pram","seed":%d}`, seed.Add(1))
	}
	// One request per submitter per op; the driver builds the body and
	// fails the benchmark on any non-200 or short response.
	do := func(b *testing.B, client *http.Client, url, contentType string, body *bytes.Buffer) {
		resp, err := client.Post(url, contentType, body)
		if err != nil {
			b.Error(err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Errorf("status %d", resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Error(err)
		}
	}
	modes := []struct {
		name string
		sub  func(b *testing.B, client *http.Client, base string)
	}{
		{"single", func(b *testing.B, client *http.Client, base string) {
			for j := 0; j < perSub; j++ {
				var buf bytes.Buffer
				buf.WriteString(specLine())
				do(b, client, base+"/v1/jobs?wait=1", "application/json", &buf)
			}
		}},
		{"batch", func(b *testing.B, client *http.Client, base string) {
			var buf bytes.Buffer
			buf.WriteByte('[')
			for j := 0; j < perSub; j++ {
				if j > 0 {
					buf.WriteByte(',')
				}
				buf.WriteString(specLine())
			}
			buf.WriteByte(']')
			do(b, client, base+"/v1/jobs:batch", "application/json", &buf)
		}},
		{"stream", func(b *testing.B, client *http.Client, base string) {
			var buf bytes.Buffer
			for j := 0; j < perSub; j++ {
				buf.WriteString(specLine())
				buf.WriteByte('\n')
			}
			do(b, client, base+"/v1/jobs:stream", "application/x-ndjson", &buf)
		}},
		{"binary", func(b *testing.B, client *http.Client, base string) {
			cl, err := wire.NewClient(client, base, wire.ProtoBinary, nil)
			if err != nil {
				b.Error(err)
				return
			}
			specs := make([]jobqueue.Spec, perSub)
			for j := range specs {
				specs[j] = jobqueue.Spec{
					Algorithm: "reduce", N: 8, P: 1,
					Engine: core.EnginePRAM, Seed: seed.Add(1),
				}
			}
			results, err := cl.Stream(specs)
			if err != nil {
				b.Error(err)
				return
			}
			if len(results) != perSub {
				b.Errorf("binary stream settled %d of %d jobs", len(results), perSub)
			}
		}},
	}
	for _, mode := range modes {
		b.Run(fmt.Sprintf("mode=%s", mode.name), func(b *testing.B) {
			q := jobqueue.New(jobqueue.Config{
				Workers: 4, QueueDepth: 8192, CacheSize: -1,
			})
			defer q.Close()
			srv := httptest.NewServer(lopramhttp.NewMux(q))
			defer srv.Close()
			client := srv.Client()
			// Keep every submitter's connection in the idle pool (the
			// default caps at 2 per host), so the steady state measures
			// the wire protocols rather than TCP dials.
			if tr, ok := client.Transport.(*http.Transport); ok {
				tr.MaxIdleConnsPerHost = submitters
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := 0; s < submitters; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						mode.sub(b, client, srv.URL)
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*jobs)/secs, "jobs/sec")
			}
		})
	}
}

// BenchmarkJobQueueCacheHit measures the lock-free cache-hit fast path:
// four concurrent submitters spray Submit calls over a 64-key hot set
// that was fully executed during warmup, so every timed submission is
// served from the shard's cache buckets without taking the shard lock.
// shards=1 is the pure contention case — before the lock-free read path
// every hit serialized on the one shard mutex — and shards=4
// shows the path scales past what sharding alone buys; cmd/benchgate
// gates both via BENCH_BASELINE.json (acceptance: ≥1.5× the locked-path
// baseline on the same machine).
func BenchmarkJobQueueCacheHit(b *testing.B) {
	const hotKeys = 64
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			q := jobqueue.New(jobqueue.Config{
				Workers: 4, Shards: shards,
				QueueDepth: 8192, CacheSize: 4096,
			})
			defer q.Close()
			spec := func(seed uint64) jobqueue.Spec {
				return jobqueue.Spec{
					Algorithm: "reduce", N: 256, P: 4,
					Engine: core.EngineSim, Seed: seed,
				}
			}
			// Execute every hot key once; Wait returns only after the
			// owning flush has inserted the result into the cache.
			for k := uint64(0); k < hotKeys; k++ {
				job, err := q.Submit(spec(k))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := job.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			const batch = 256
			const submitters = 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := 0; s < submitters; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						rng := uint64(s)*2654435761 + 1
						for j := 0; j < batch/submitters; j++ {
							rng = rng*6364136223846793005 + 1442695040888963407
							job, err := q.Submit(spec(rng % hotKeys))
							if err != nil {
								b.Error(err)
								return
							}
							res, err := job.Result()
							if err != nil {
								b.Error(err)
								return
							}
							if !res.Cached {
								b.Error("hot key missed the cache")
								return
							}
						}
					}(s)
				}
				wg.Wait()
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*batch)/secs, "jobs/sec")
			}
		})
	}
}

// BenchmarkJobQueueSettle prices the batched completion path: unique
// sub-µs PRAM jobs on one shard, where before batching each completion
// took the shard lock individually and the settle rate was the shard's
// lock rate. Every key is distinct, so every job executes and settles:
// cache=off prices the flush alone, and cache=512 (lopramd's default
// size) adds a cache insert per job, an eviction once the cache is full.
// The per-op job count (256) is a multiple of the flush threshold so
// full flushes dominate; cmd/benchgate gates both rows via
// BENCH_BASELINE.json and their ratio in CI.
func BenchmarkJobQueueSettle(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"off", -1}, {"512", 512}} {
		b.Run("cache="+c.name, func(b *testing.B) {
			var seed atomic.Uint64
			q := jobqueue.New(jobqueue.Config{
				Workers: 4, Shards: 1,
				QueueDepth: 8192, CacheSize: c.size,
			})
			defer q.Close()
			const batch = 256
			const submitters = 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := 0; s < submitters; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						jobs := make([]*jobqueue.Job, 0, batch/submitters)
						for j := 0; j < batch/submitters; j++ {
							job, err := q.Submit(jobqueue.Spec{
								Algorithm: "reduce", N: 8, P: 1,
								Engine: core.EnginePRAM, Seed: seed.Add(1),
							})
							if err != nil {
								b.Error(err)
								return
							}
							jobs = append(jobs, job)
						}
						for _, job := range jobs {
							if _, err := job.Wait(context.Background()); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*batch)/secs, "jobs/sec")
			}
		})
	}
}

// ---- palrt work-stealing scheduler matrix ----
//
// BenchmarkPalrt{Spawn,Steal,DandC,DP} sweep processor count and task grain
// for the goroutine runtime, with the retained permit-channel runtime as
// the A/B baseline (sched=permit). The CI bench job runs these at
// -benchtime=1x as a smoke test; the acceptance number for the scheduler is
// BenchmarkPalrtDandC/p=8: ops/sec of sched=steal vs sched=permit.

// palDoer is the scheduling surface shared by the work-stealing RT and the
// permit-channel baseline.
type palDoer interface {
	Do(children ...func())
	P() int
}

func palSchedulers(p int) map[string]func() palDoer {
	return map[string]func() palDoer{
		"steal":  func() palDoer { return palrt.New(p) },
		"permit": func() palDoer { return palrt.NewPermit(p) },
	}
}

// benchBusy burns deterministic CPU proportional to units.
func benchBusy(units int) int64 {
	var s int64
	for i := 0; i < units; i++ {
		s += int64(i ^ (i >> 3))
	}
	return s
}

// benchDandCTree is the paper-shaped D&C recursion: binary spawning down to
// the frontier depth (one level past processor saturation, like
// dandc.CostModel.SpawnDepth = FrontierDepth+), sequential leaf work below
// it. depth log2(2p) gives 2p leaves, so the runtime is saturated and the
// last level exercises the inline fallback.
func benchDandCTree(rt palDoer, depth, leafUnits int, sink *atomic.Int64) {
	if depth == 0 {
		sink.Add(benchBusy(leafUnits))
		return
	}
	rt.Do(
		func() { benchDandCTree(rt, depth-1, leafUnits, sink) },
		func() { benchDandCTree(rt, depth-1, leafUnits, sink) },
	)
}

// frontierDepth is ceil(log2(2p)): the spawn depth at which a binary tree
// saturates p processors, plus one.
func frontierDepth(p int) int {
	d := 0
	for 1<<d < 2*p {
		d++
	}
	return d
}

// BenchmarkPalrtSpawn measures the bare cost of offering one child and
// joining it: a two-child block with no leaf work, the worst case for
// per-spawn overhead.
func BenchmarkPalrtSpawn(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		for _, sched := range []string{"steal", "permit"} {
			rt := palSchedulers(p)[sched]()
			b.Run(fmt.Sprintf("p=%d/sched=%s", p, sched), func(b *testing.B) {
				b.ReportAllocs()
				noop := func() {}
				for i := 0; i < b.N; i++ {
					rt.Do(noop, noop)
				}
			})
		}
	}
}

// BenchmarkPalrtSteal offers a wide flat block of medium-grain children so
// idle processors must claim work from the submitting processor's deque; it
// reports how many children were actually stolen per op. Each child yields
// once mid-task (modeling work that blocks), so worker goroutines get
// scheduled even when GOMAXPROCS serializes the host and claims move to
// other processors' deques.
func BenchmarkPalrtSteal(b *testing.B) {
	const kids, units = 64, 4096
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rt := palrt.New(p)
			var sink atomic.Int64
			jobs := make([]func(), kids)
			for i := range jobs {
				jobs[i] = func() {
					sink.Add(benchBusy(units / 2))
					runtime.Gosched()
					sink.Add(benchBusy(units / 2))
				}
			}
			rt.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Do(jobs...)
			}
			b.StopTimer()
			s := rt.StatsSnapshot()
			if off := s.Offered(); off > 0 {
				b.ReportMetric(float64(s.Stolen)/float64(b.N), "steals/op")
				b.ReportMetric(float64(s.Spawned)/float64(off), "spawned-frac")
			}
		})
	}
}

// BenchmarkPalrtDandC runs the frontier-truncated D&C recursion across the
// full (p, grain, scheduler) matrix — the acceptance benchmark for the
// work-stealing runtime. Each op is one computation arriving on an idle
// runtime (the serving pattern), so the permit baseline pays its per-spawn
// goroutine creation and the deque scheduler its pooled fast path.
func BenchmarkPalrtDandC(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		for _, grain := range []int{64, 1024} {
			for _, sched := range []string{"steal", "permit"} {
				mk := palSchedulers(p)[sched]
				b.Run(fmt.Sprintf("p=%d/grain=%d/sched=%s", p, grain, sched), func(b *testing.B) {
					b.ReportAllocs()
					rt := mk()
					depth := frontierDepth(p)
					var sink atomic.Int64
					for i := 0; i < b.N; i++ {
						benchDandCTree(rt, depth, grain, &sink)
					}
				})
			}
		}
	}
}

// BenchmarkPalrtDP drives the DP counter scheduler through the catalogue's
// edit-distance entry on the goroutine engine: the serving layer's DP path
// end to end, across p and problem size (the DP grain).
func BenchmarkPalrtDP(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int{128, 512} {
			b.Run(fmt.Sprintf("p=%d/n=%d", p, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.RunAlgorithm("editdistance", core.EnginePalrt, n, p, 7); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
