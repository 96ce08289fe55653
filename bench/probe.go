package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
	"lopram/internal/lopramhttp"
	"lopram/internal/wire"
)

// The in-process probes price each layer on the workload's own requests.
// The HTTP and queue probes replay the clients' closed loops, think time
// included, with everything above the layer removed: the HTTP probe calls
// the mux directly and the queue probe submits straight to a
// jobqueue.Queue. The core probe runs the specs the queue executed
// through core.RunAlgorithm on one goroutine per worker. A layer's time
// per job is its probe's wall time over the requests' job count, so it
// compares with the end-to-end 1/jobs_per_sec, and each layer's self time
// is its time minus the next layer's.

// streamChunk mirrors the micro-batch size lopramhttp settles a stream
// request in, so the queue probe submits in the shape the handler does.
const streamChunk = 64

// probeResult holds what the layer probes measured.
type probeResult struct {
	jobs                    int
	httpUS, queueUS, coreUS float64
	submitNS                float64
	bytesPerJob             float64
	engineUS                map[core.Engine]float64
	codec                   map[string]float64
}

// probeLayers runs the HTTP probe for budget, then the queue and core
// probes over exactly the requests the HTTP probe got through, and the
// codec probe over their specs and results.
func probeLayers(w *workloadSpec, budget time.Duration) (*probeResult, error) {
	pr := &probeResult{}
	counts, err := probeHTTP(w, budget, pr)
	if err != nil {
		return nil, err
	}
	execs, sample, err := probeQueue(w, counts, pr)
	if err != nil {
		return nil, err
	}
	probeCore(execs, pr)
	pr.codec = probeCodec(sample)
	return pr, nil
}

// closedLoop runs one goroutine per client, each calling step with its
// request number until step returns false, and returns the wall time.
func closedLoop(w *workloadSpec, step func(c, r int) bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			think := w.clients[c].thinks()
			for r := 0; step(c, r); r++ {
				if d := think(); d > 0 {
					time.Sleep(d)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// warmSources returns fresh sources for every client, each advanced past
// its set-up requests after send has served them.
func warmSources(w *workloadSpec, send func(c int, specs []jobqueue.Spec) error) ([]source, error) {
	srcs := make([]source, len(w.clients))
	var buf []jobqueue.Spec
	for c := range w.clients {
		cs := &w.clients[c]
		srcs[c] = cs.newSource()
		for _, req := range cs.prime {
			if err := send(c, req); err != nil {
				return nil, err
			}
		}
		for i := 0; i < cs.warmup; i++ {
			buf = srcs[c](buf)
			if err := send(c, buf); err != nil {
				return nil, err
			}
		}
	}
	return srcs, nil
}

func perJobUS(d time.Duration, jobs int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(jobs)
}

// probeHTTP drives lopramhttp's mux with httptest requests until budget
// has passed and returns how many requests each client made.
func probeHTTP(w *workloadSpec, budget time.Duration, pr *probeResult) ([]int, error) {
	q := jobqueue.New(lopramdDefaults())
	defer q.Close()
	mux := lopramhttp.NewMux(q)
	codec := wire.NewCodec(q.Classes())
	type prober struct {
		buf               []jobqueue.Spec
		body              []byte
		reqs, jobs, bytes int
		err               error
	}
	probers := make([]prober, len(w.clients))
	serve := func(c int, specs []jobqueue.Spec) error {
		p := &probers[c]
		path, ctype, body, err := encodeRequest(w.clients[c].proto, codec, specs, p.body)
		p.body = body
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		p.jobs += len(specs)
		p.bytes += len(body) + rec.Body.Len()
		return nil
	}
	srcs, err := warmSources(w, serve)
	if err != nil {
		return nil, err
	}
	for c := range probers {
		probers[c].jobs, probers[c].bytes = 0, 0
	}
	deadline := time.Now().Add(budget)
	wall := closedLoop(w, func(c, r int) bool {
		p := &probers[c]
		if p.err != nil || !time.Now().Before(deadline) {
			return false
		}
		p.buf = srcs[c](p.buf)
		p.err = serve(c, p.buf)
		p.reqs++
		return true
	})
	counts := make([]int, len(probers))
	totalBytes := 0
	for c, p := range probers {
		if p.err != nil {
			return nil, p.err
		}
		counts[c] = p.reqs
		pr.jobs += p.jobs
		totalBytes += p.bytes
	}
	pr.httpUS = perJobUS(wall, pr.jobs)
	pr.bytesPerJob = float64(totalBytes) / float64(pr.jobs)
	return counts, nil
}

// codecSample is a spec and the result it settled to.
type codecSample struct {
	spec jobqueue.Spec
	res  jobqueue.Result
}

// maxCodecSample bounds the specs kept for the codec probe.
const maxCodecSample = 1 << 15

// probeQueue submits each client's first counts[c] requests straight to
// a queue configured like lopramd, and returns the specs the queue
// executed (not served from the cache or coalesced) and a sample of
// specs with their results.
func probeQueue(w *workloadSpec, counts []int, pr *probeResult) ([]jobqueue.Spec, []codecSample, error) {
	q := jobqueue.New(lopramdDefaults())
	defer q.Close()
	type prober struct {
		buf    []jobqueue.Spec
		submit time.Duration
		execs  []jobqueue.Spec
		sample []codecSample
		err    error
	}
	probers := make([]prober, len(w.clients))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// send submits one request the way lopramd's handler for the
	// client's protocol does, keeping what settled when keep is set.
	send := func(c int, specs []jobqueue.Spec, keep bool) error {
		p := &probers[c]
		settled := func(s *jobqueue.Spec, res jobqueue.Result, err error) error {
			if err != nil {
				return fmt.Errorf("%s: %w", s, err)
			}
			if keep && !res.Cached {
				p.execs = append(p.execs, *s)
			}
			if keep && len(p.sample) < maxCodecSample/len(probers) {
				p.sample = append(p.sample, codecSample{*s, res})
			}
			return nil
		}
		if w.clients[c].proto == protoSingle {
			start := time.Now()
			job, err := q.Submit(specs[0])
			p.submit += time.Since(start)
			if err == nil {
				var res jobqueue.Result
				res, err = job.Wait(ctx)
				err = settled(&specs[0], res, err)
			}
			return err
		}
		for off := 0; off < len(specs); off += streamChunk {
			chunk := specs[off:min(off+streamChunk, len(specs))]
			b := q.NewBatch()
			start := time.Now()
			for i := range chunk {
				s := chunk[i] // SubmitSpec resolves defaults in place
				_ = b.SubmitSpec(&s)
			}
			p.submit += time.Since(start)
			if err := b.Wait(ctx); err != nil {
				return err
			}
			for i := range chunk {
				res, err := b.Outcome(i)
				if err := settled(&chunk[i], res, err); err != nil {
					return err
				}
			}
			b.Release()
		}
		return nil
	}
	srcs, err := warmSources(w, func(c int, specs []jobqueue.Spec) error { return send(c, specs, false) })
	if err != nil {
		return nil, nil, err
	}
	for c := range probers {
		probers[c].submit = 0
	}
	before := q.Snapshot()
	wall := closedLoop(w, func(c, r int) bool {
		p := &probers[c]
		if p.err != nil || r == counts[c] {
			return false
		}
		p.buf = srcs[c](p.buf)
		p.err = send(c, p.buf, true)
		return true
	})
	after := q.Snapshot()
	var (
		execs  []jobqueue.Spec
		sample []codecSample
		submit time.Duration
	)
	for _, p := range probers {
		if p.err != nil {
			return nil, nil, p.err
		}
		execs = append(execs, p.execs...)
		sample = append(sample, p.sample...)
		submit += p.submit
	}
	pr.queueUS = perJobUS(wall, pr.jobs)
	pr.submitNS = float64(submit) / float64(pr.jobs)
	// A coalesced duplicate is answered uncached like the run it joined;
	// drop repeated keys until the kept specs match the runs the queue
	// counted.
	surplus := len(execs) - int(after.Completed+after.Failed-before.Completed-before.Failed)
	seen := make(map[jobqueue.Key]bool)
	kept := execs[:0]
	for _, s := range execs {
		k := keyOf(&s)
		if seen[k] && surplus > 0 {
			surplus--
			continue
		}
		seen[k] = true
		kept = append(kept, s)
	}
	return kept, sample, nil
}

// probeCore runs the executed specs through core.RunAlgorithm on as many
// goroutines as lopramd has workers by default, one per core.
func probeCore(execs []jobqueue.Spec, pr *probeResult) {
	workers := runtime.GOMAXPROCS(0)
	type engineTally struct {
		runs map[core.Engine]time.Duration
		n    map[core.Engine]int
	}
	tallies := make([]engineTally, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := range tallies {
		tallies[g] = engineTally{runs: make(map[core.Engine]time.Duration), n: make(map[core.Engine]int)}
		wg.Add(1)
		go func(t *engineTally) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(execs) {
					return
				}
				s := &execs[i]
				t0 := time.Now()
				_, _ = core.RunAlgorithm(s.Algorithm, s.Engine, s.N, s.P, s.Seed)
				t.runs[s.Engine] += time.Since(t0)
				t.n[s.Engine]++
			}
		}(&tallies[g])
	}
	wg.Wait()
	pr.coreUS = perJobUS(time.Since(start), pr.jobs)
	pr.engineUS = make(map[core.Engine]float64)
	for _, e := range []core.Engine{core.EngineSim, core.EnginePalrt, core.EnginePRAM} {
		var d time.Duration
		n := 0
		for _, t := range tallies {
			d += t.runs[e]
			n += t.n[e]
		}
		if n > 0 {
			pr.engineUS[e] = perJobUS(d, n)
		}
	}
}

// timeLoop calls body until at least 20ms have passed and returns the
// time per item, body handling items items per call.
func timeLoop(items int, body func()) float64 {
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < 20*time.Millisecond {
		body()
		calls++
	}
	return float64(time.Since(start)) / float64(calls*items)
}

// payloads splits a buffer of frames into their payloads, type byte
// dropped.
func payloads(buf []byte) [][]byte {
	var out [][]byte
	for len(buf) > 0 {
		n, k := binary.Uvarint(buf)
		out = append(out, buf[k+1:k+int(n)])
		buf = buf[k+int(n):]
	}
	return out
}

// probeCodec times the wire codec on the workload's specs and results,
// on one goroutine.
func probeCodec(sample []codecSample) map[string]float64 {
	if len(sample) == 0 {
		return nil
	}
	codec := wire.NewCodec(jobqueue.DefaultClasses(0))
	var specBuf, resBuf []byte
	encSpec := timeLoop(len(sample), func() {
		specBuf = specBuf[:0]
		for i := range sample {
			specBuf, _ = codec.AppendSpec(specBuf, &sample[i].spec)
		}
	})
	encRes := timeLoop(len(sample), func() {
		resBuf = resBuf[:0]
		for i := range sample {
			resBuf = wire.AppendResult(resBuf, i, uint64(i), sample[i].res)
		}
	})
	specs, results := payloads(specBuf), payloads(resBuf)
	var s jobqueue.Spec
	decSpec := timeLoop(len(specs), func() {
		for _, p := range specs {
			_ = codec.DecodeSpec(p, &s)
		}
	})
	var r wire.Result
	decRes := timeLoop(len(results), func() {
		for _, p := range results {
			_ = codec.DecodeResult(p, &r)
		}
	})
	return map[string]float64{
		"wire.spec_encode_ns":   encSpec,
		"wire.spec_decode_ns":   decSpec,
		"wire.result_encode_ns": encRes,
		"wire.result_decode_ns": decRes,
	}
}
