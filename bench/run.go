package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
)

// config sizes one run.
type config struct {
	// seconds is the measured window; a traced run measures an untraced
	// and a traced window of half as long each, at most maxTracedWindow.
	seconds float64
	// setups is how many times an untraced run sets up; setup_s is the
	// median, and the last set-up serves the window.
	setups int
	// probe is the time budget of the HTTP-layer probe of a traced run.
	probe time.Duration
	// calibN is the iteration count of the host calibration loop.
	calibN int
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// receipt is when a client decoded a job's answer, for joining client
// time with the flight record by job id.
type receipt struct {
	id uint64
	at int64 // Unix ns
}

// tally is what a client counted over a window.
type tally struct {
	attempted int
	failed    int
	lat       []float64 // foreground latencies, ms
	fgJobs    int
	sloMiss   int
	receipts  []receipt
	errs      []string
}

func (t *tally) fail(msg string) {
	if len(t.errs) < 5 {
		t.errs = append(t.errs, msg)
	}
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.lat = append(t.lat, o.lat...)
	t.fgJobs += o.fgJobs
	t.sloMiss += o.sloMiss
	t.receipts = append(t.receipts, o.receipts...)
	for _, e := range o.errs {
		t.fail(e)
	}
}

// clientRun is one client's connection, request sequence and tallies
// against one server.
type clientRun struct {
	spec  *clientSpec
	conn  *conn
	src   source
	think func() time.Duration
	buf   []jobqueue.Spec
	check *checker
	t     tally
}

// send makes one request and tallies every job in it: an answer that
// reports failure, or no answer at all, counts as failed and, for a
// foreground client, as an SLO miss.
func (cr *clientRun) send(specs []jobqueue.Spec, sloMS float64, record bool) {
	t := &cr.t
	fg := cr.spec.foreground
	answered := 0
	sent := time.Now()
	err := cr.conn.exchange(specs, func(i int, a answer) {
		answered++
		if !a.ok {
			t.failed++
			t.fail(fmt.Sprintf("%s: %s", specs[i], a.code))
		}
		if fg {
			ms := float64(a.at.Sub(sent)) / float64(time.Millisecond)
			t.lat = append(t.lat, ms)
			if !a.ok || ms > sloMS {
				t.sloMiss++
			}
		}
		if record && a.ok {
			t.receipts = append(t.receipts, receipt{a.id, a.at.UnixNano()})
		}
		cr.check.observe(&specs[i], &a)
	})
	t.attempted += len(specs)
	if fg {
		t.fgJobs += len(specs)
	}
	if missing := len(specs) - answered; missing > 0 || err != nil {
		t.failed += missing
		if fg {
			t.sloMiss += missing
		}
		t.fail(fmt.Sprintf("%d jobs unanswered: %v", missing, err))
	}
}

// pause sleeps the client's think time, cut short at deadline.
func (cr *clientRun) pause(deadline time.Time) {
	if d := min(cr.think(), time.Until(deadline)); d > 0 {
		time.Sleep(d)
	}
}

// setUp starts a server and warms it with every client's set-up requests:
// the measured set-up time runs from the launch to the end of warm-up.
func setUp(launch launcher, traced bool, w *workloadSpec) (*server, []*clientRun, time.Duration, error) {
	start := time.Now()
	srv, err := launch(traced)
	if err != nil {
		return nil, nil, 0, err
	}
	var classes jobqueue.ClassSet
	if err := getJSON(srv.base+"/v1/classes", &classes); err != nil {
		_ = srv.stop()
		return nil, nil, 0, err
	}
	clients := make([]*clientRun, len(w.clients))
	for i := range w.clients {
		cs := &w.clients[i]
		clients[i] = &clientRun{spec: cs, conn: newConn(srv.base, cs.proto, classes),
			src: cs.newSource(), think: cs.thinks(), check: newChecker(cs.oracleEvery)}
	}
	var wg sync.WaitGroup
	for _, cr := range clients {
		wg.Add(1)
		go func(cr *clientRun) {
			defer wg.Done()
			for _, req := range cr.spec.prime {
				cr.send(req, w.sloMS, false)
			}
			for i := 0; i < cr.spec.warmup; i++ {
				cr.buf = cr.src(cr.buf)
				cr.send(cr.buf, w.sloMS, false)
				if i < cr.spec.warmup-1 {
					time.Sleep(cr.spec.think)
				}
			}
		}(cr)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, cr := range clients {
		if cr.t.failed > 0 {
			closeClients(clients)
			_ = srv.stop()
			return nil, nil, 0, fmt.Errorf("warm-up: %d of %d jobs failed: %v", cr.t.failed, cr.t.attempted, cr.t.errs)
		}
	}
	return srv, clients, elapsed, nil
}

func closeClients(clients []*clientRun) {
	for _, cr := range clients {
		cr.conn.close()
	}
}

// windowResult is one measured window's outcome.
type windowResult struct {
	start     time.Time
	elapsed   time.Duration
	t         tally
	serverCPU time.Duration // 0 when the server process is not readable
	genCPU    time.Duration
}

func (r *windowResult) jobsPerSec() float64 {
	return float64(r.t.attempted-r.t.failed) / r.elapsed.Seconds()
}

// measure runs every client's closed loop until d has passed; a request
// already sent when the window closes finishes and counts.
func measure(srv *server, clients []*clientRun, w *workloadSpec, d time.Duration, record bool) (windowResult, error) {
	for _, cr := range clients {
		cr.t = tally{}
	}
	var cpu0 time.Duration
	if srv.pid > 0 {
		var err error
		if cpu0, err = procCPU(srv.pid); err != nil {
			return windowResult{}, err
		}
	}
	gen0 := selfCPU()
	res := windowResult{start: time.Now()}
	deadline := res.start.Add(d)
	var wg sync.WaitGroup
	for _, cr := range clients {
		wg.Add(1)
		go func(cr *clientRun) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cr.buf = cr.src(cr.buf)
				cr.send(cr.buf, w.sloMS, record)
				cr.pause(deadline)
			}
		}(cr)
	}
	wg.Wait()
	res.elapsed = time.Since(res.start)
	res.genCPU = selfCPU() - gen0
	if srv.pid > 0 {
		cpu1, err := procCPU(srv.pid)
		if err != nil {
			return windowResult{}, err
		}
		res.serverCPU = cpu1 - cpu0
	}
	for _, cr := range clients {
		res.t.add(&cr.t)
	}
	if res.t.attempted == 0 {
		return windowResult{}, errors.New("the window closed before any request was sent")
	}
	return res, nil
}

// calibrate times a fixed single-threaded engine loop: the host's speed
// just before the window, so a slow or busy host shows in the report.
func calibrate(n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		_, _ = core.RunAlgorithm("editdistance", core.EngineSim, 32, 0, uint64(i+1))
	}
	return float64(time.Since(start)) / float64(time.Millisecond) / float64(n)
}

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := q * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setE2E records the end-to-end metrics of an untraced window.
func (r *report) setE2E(w *workloadSpec, win *windowResult, setups []float64, rssMB float64, hasServer bool) {
	lat := append([]float64(nil), win.t.lat...)
	sort.Float64s(lat)
	kjobs := float64(win.t.attempted) / 1000
	r.set("jobs_per_sec", win.jobsPerSec())
	r.set("latency_p50_ms", quantile(lat, 0.50))
	r.set("latency_p99_ms", quantile(lat, 0.99))
	r.set("slo_miss_frac", ratio(float64(win.t.sloMiss), float64(win.t.fgJobs)))
	r.set("fail_frac", ratio(float64(win.t.failed+len(r.mismatches)), float64(win.t.attempted)))
	if hasServer {
		r.set("server_cpu_ms_per_kjob", float64(win.serverCPU)/float64(time.Millisecond)/kjobs)
		r.set("server_rss_peak_mb", rssMB)
	}
	r.set("setup_s", median(setups))
	r.note("window %.2fs: %d jobs attempted, %d failed; %d foreground latency samples, %d beyond p99 (SLO %gms)",
		win.elapsed.Seconds(), win.t.attempted, win.t.failed, len(lat), len(lat)-int(math.Ceil(0.99*float64(len(lat)))), w.sloMS)
	r.note("setup_s samples: %v", setups)
	r.attempted += win.t.attempted
	r.failed += win.t.failed
	for _, e := range win.t.errs {
		r.note("failure: %s", e)
	}
}

// runUntraced measures the end-to-end metrics: several set-ups, then one
// window against the last.
func runUntraced(cfg config, w *workloadSpec, launch launcher) (*report, error) {
	rep := newReport()
	var (
		setups  []float64
		srv     *server
		clients []*clientRun
	)
	for i := 0; i < cfg.setups; i++ {
		s, cl, d, err := setUp(launch, false, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < cfg.setups-1 {
			closeClients(cl)
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv, clients = s, cl
	}
	rep.calibMS = calibrate(cfg.calibN)
	win, err := measure(srv, clients, w, cfg.window(), false)
	var rss float64
	if err == nil && srv.pid > 0 {
		rss, err = procPeakRSS(srv.pid)
	}
	closeClients(clients)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	mismatches, checkedN := verify(checkersOf(clients))
	rep.mismatches = mismatches
	rep.note("oracle: %d answers checked against direct runs, %d mismatches", checkedN, len(mismatches))
	rep.setE2E(w, &win, setups, rss, srv.pid > 0)
	return rep, nil
}
