package main

import (
	"fmt"
	"math"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
	"lopram/internal/workload"
)

// Client protocols: the three ways lopramd takes jobs.
const (
	protoBinary = "binary" // POST /v1/jobs:stream, length-prefixed frames
	protoNDJSON = "ndjson" // POST /v1/jobs:stream, one JSON line per spec
	protoSingle = "single" // POST /v1/jobs?wait=1, one JSON spec
)

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"ingest-tiny", "compute-mix", "repeat-hot", "interactive-under-batch"}

// source yields one client's requests in order: each call appends the
// next request's specs to buf[:0]. A fresh source restarts the sequence,
// so set-up, the measured window and the in-process probes all replay
// the same requests.
type source func(buf []jobqueue.Spec) []jobqueue.Spec

// clientSpec is one closed-loop client: it sends a request, reads every
// answer, pauses for a think time, and sends the next.
type clientSpec struct {
	proto string
	// foreground clients supply the latency and SLO samples.
	foreground bool
	// think is the mean pause between reading a request's answers and
	// sending the next; 0 for none. The measured traffic draws each pause
	// from thinkSeed (see thinks). Set-up pauses for exactly the mean, so
	// that set-up time does not depend on the seed.
	think     time.Duration
	thinkSeed uint64
	// oracleEvery is 0 to check every distinct key against a direct run,
	// or N to check one answer in N.
	oracleEvery int
	// prime holds set-up requests sent before the warm-up requests.
	prime [][]jobqueue.Spec
	// warmup is how many requests of the sequence set-up sends.
	warmup    int
	newSource func() source
}

// thinks returns a fresh sequence of the client's measured pauses, drawn
// from an exponential distribution of mean think. Memoryless pauses make
// a client's requests arrive at a uniformly random point of any other
// client's request cycle. A fixed pause locks onto that cycle instead, at
// a phase set by the host's speed, and a small change of speed then makes
// a large change of latency.
func (cs *clientSpec) thinks() func() time.Duration {
	r := workload.NewRNG(cs.thinkSeed)
	return func() time.Duration {
		return time.Duration(-math.Log(1-r.Float64()) * float64(cs.think))
	}
}

// workloadSpec is one traffic mix: its clients and the latency limit
// its foreground jobs are held to.
type workloadSpec struct {
	sloMS   float64
	clients []clientSpec
}

// seedMask keeps data seeds exact as JSON numbers (below 2^53).
const seedMask = 1<<48 - 1

// Stream tags: each names an independent generator of a run, so that
// adding a stream never shifts another's values.
const (
	streamTiny = iota + 1
	streamMix
	streamHot
	streamRepeat
	streamFresh
	streamUser
	streamFlood
	streamThink
)

// derive returns the generator of one stream of the run with the given
// seed; the same (seed, stream, index) always gives the same generator.
func derive(seed, stream, index uint64) *workload.RNG {
	a := workload.NewRNG(seed).Uint64()
	b := workload.NewRNG(a ^ stream*0x9e3779b97f4a7c15).Uint64()
	return workload.NewRNG(b ^ index*0xbf58476d1ce4e5b9)
}

// gridPoint is one (algorithm, engine, n) of the compute mix.
type gridPoint struct {
	alg string
	eng core.Engine
	n   int
}

// computeGrid is one block of the compute mix: 32 points spread over the
// engines that do the work. Sizes sit at evenly spaced quantiles of each
// range's logarithm. Every block holds each point once, so any run of
// whole blocks carries the same work whatever the seed; a fixed-length
// window over a randomly drawn mix would cover a different amount of
// work on every seed.
var computeGrid = func() []gridPoint {
	ranges := []struct {
		alg    string
		eng    core.Engine
		lo, hi int
		k      int
	}{
		{"mergesort", core.EnginePalrt, 4096, 65536, 4},
		{"quicksort", core.EnginePalrt, 4096, 65536, 4},
		{"closestpair", core.EnginePalrt, 2048, 16384, 4},
		{"prefixsums", core.EnginePalrt, 16384, 262144, 4},
		// Dynamic programs stay at n <= 128: palrt knapsack at n=1024
		// alone takes most of a second.
		{"editdistance", core.EnginePalrt, 32, 128, 2},
		{"lcs", core.EnginePalrt, 32, 128, 2},
		{"mergesort", core.EngineSim, 256, 4096, 4},
		{"reduce", core.EngineSim, 256, 4096, 4},
		{"editdistance", core.EngineSim, 16, 48, 4},
	}
	var grid []gridPoint
	for _, r := range ranges {
		for i := 0; i < r.k; i++ {
			q := (2*float64(i) + 1) / (2 * float64(r.k))
			n := int(math.Round(float64(r.lo) * math.Pow(float64(r.hi)/float64(r.lo), q)))
			grid = append(grid, gridPoint{r.alg, r.eng, n})
		}
	}
	return grid
}()

// mixStream deals compute-mix specs one grid block at a time, each block
// in a seeded order with fresh data seeds, so every spec is a distinct
// cache key.
type mixStream struct {
	r     *workload.RNG
	block []jobqueue.Spec
}

func (m *mixStream) next() jobqueue.Spec {
	if len(m.block) == 0 {
		for _, i := range m.r.Perm(len(computeGrid)) {
			g := computeGrid[i]
			m.block = append(m.block, jobqueue.Spec{Algorithm: g.alg, N: g.n, Engine: g.eng,
				Seed: m.r.Uint64() & seedMask})
		}
	}
	s := m.block[0]
	m.block = m.block[1:]
	return s
}

// buildWorkload returns the named workload with every input derived
// from seed.
func buildWorkload(name string, seed uint64) (*workloadSpec, error) {
	switch name {
	case "ingest-tiny":
		return ingestTiny(seed), nil
	case "compute-mix":
		return computeMix(seed), nil
	case "repeat-hot":
		return repeatHot(seed), nil
	case "interactive-under-batch":
		return interactiveUnderBatch(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// ingestTiny: two binary stream clients, 256 distinct near-free specs per
// request. Compute is sub-microsecond, so the serving path (codec,
// handler, ring, dispatch, completion flush, cache inserts) is the cost.
func ingestTiny(seed uint64) *workloadSpec {
	w := &workloadSpec{sloMS: 25}
	for c := 0; c < 2; c++ {
		w.clients = append(w.clients, clientSpec{
			proto: protoBinary, foreground: true,
			oracleEvery: 1024, warmup: 20,
			newSource: func() source {
				r := derive(seed, streamTiny, uint64(c))
				return func(buf []jobqueue.Spec) []jobqueue.Spec {
					buf = buf[:0]
					for k := 0; k < 256; k++ {
						buf = append(buf, jobqueue.Spec{Algorithm: "reduce", N: 8, P: 1,
							Engine: core.EnginePRAM, Seed: r.Uint64() & seedMask})
					}
					return buf
				}
			},
		})
	}
	return w
}

// computeMix: two binary stream clients, 8 distinct compute-mix specs per
// request. The engines do almost all the work.
func computeMix(seed uint64) *workloadSpec {
	w := &workloadSpec{sloMS: 150}
	for c := 0; c < 2; c++ {
		w.clients = append(w.clients, clientSpec{
			proto: protoBinary, foreground: true,
			warmup: 4,
			newSource: func() source {
				m := &mixStream{r: derive(seed, streamMix, uint64(c))}
				return func(buf []jobqueue.Spec) []jobqueue.Spec {
					buf = buf[:0]
					for k := 0; k < 8; k++ {
						buf = append(buf, m.next())
					}
					return buf
				}
			},
		})
	}
	return w
}

// Repeat-hot shape: a hot set that fits the default 512-entry cache on
// its own, and a trickle of fresh keys whose inserts evict hot keys.
const (
	hotKeys   = 384
	freshFrac = 0.02
)

// repeatHot: two NDJSON stream clients, 64 specs per request; 98% re-issue
// one of 384 hot compute-mix keys, 2% are fresh. Set-up primes the hot set.
func repeatHot(seed uint64) *workloadSpec {
	hs := &mixStream{r: derive(seed, streamHot, 0)}
	hot := make([]jobqueue.Spec, hotKeys)
	for i := range hot {
		hot[i] = hs.next()
	}
	w := &workloadSpec{sloMS: 100}
	const clients = 2
	for c := 0; c < clients; c++ {
		var prime [][]jobqueue.Spec
		share := hot[c*hotKeys/clients : (c+1)*hotKeys/clients]
		for len(share) > 0 {
			k := min(64, len(share))
			prime = append(prime, share[:k])
			share = share[k:]
		}
		w.clients = append(w.clients, clientSpec{
			proto: protoNDJSON, foreground: true,
			prime: prime, warmup: 4,
			newSource: func() source {
				r := derive(seed, streamRepeat, uint64(c))
				fresh := &mixStream{r: derive(seed, streamFresh, uint64(c))}
				return func(buf []jobqueue.Spec) []jobqueue.Spec {
					buf = buf[:0]
					for k := 0; k < 64; k++ {
						if r.Float64() < freshFrac {
							buf = append(buf, fresh.next())
						} else {
							buf = append(buf, hot[r.Intn(hotKeys)])
						}
					}
					return buf
				}
			},
		})
	}
	return w
}

// interactiveUnderBatch: one interactive user sending single ?wait=1
// requests of ~0.3 ms sim reduce jobs with exponential think times of
// mean 5 ms, next to one binary client flooding the batch class with
// 4-spec requests of ~3-6 ms sim editdistance jobs.
func interactiveUnderBatch(seed uint64) *workloadSpec {
	return &workloadSpec{sloMS: 50, clients: []clientSpec{
		{
			proto: protoSingle, foreground: true,
			think: 5 * time.Millisecond, thinkSeed: derive(seed, streamThink, 0).Uint64(),
			warmup: 20,
			newSource: func() source {
				r := derive(seed, streamUser, 0)
				return func(buf []jobqueue.Spec) []jobqueue.Spec {
					return append(buf[:0], jobqueue.Spec{Algorithm: "reduce", N: 64 + r.Intn(193),
						Engine: core.EngineSim, Seed: r.Uint64() & seedMask, Priority: jobqueue.ClassInteractive})
				}
			},
		},
		{
			proto: protoBinary, oracleEvery: 1024, warmup: 5,
			newSource: func() source {
				r := derive(seed, streamFlood, 0)
				return func(buf []jobqueue.Spec) []jobqueue.Spec {
					buf = buf[:0]
					for k := 0; k < 4; k++ {
						buf = append(buf, jobqueue.Spec{Algorithm: "editdistance", N: 32,
							Engine: core.EngineSim, Seed: r.Uint64() & seedMask, Priority: jobqueue.ClassBatch})
					}
					return buf
				}
			},
		},
	}}
}
