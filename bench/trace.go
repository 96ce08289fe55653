package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobtrace"
)

// traceStats is what a flight record says about the jobs submitted in
// one window.
type traceStats struct {
	records int
	// waitMS and runMS are the queue wait and run time of executed jobs.
	waitMS, runMS []float64
	// finish is each executed job's finish time (Unix ns) by job id.
	finish                   map[uint64]int64
	spawned, stolen, inlined int64
}

// readTrace reads a JSONL flight record, keeping the records of jobs
// submitted at or after since.
func readTrace(path string, since time.Time) (*traceStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ts := &traceStats{finish: make(map[uint64]int64)}
	from := since.UnixNano()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var r jobtrace.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.SubmitNS < from {
			continue
		}
		ts.records++
		if !r.Executed() {
			continue
		}
		ts.waitMS = append(ts.waitMS, r.WaitMS)
		ts.runMS = append(ts.runMS, r.RunMS)
		ts.finish[r.ID] = r.FinishNS
		if r.Sched != nil {
			ts.spawned += r.Sched.Spawned
			ts.stolen += r.Sched.Stolen
			ts.inlined += r.Sched.Inlined
		}
	}
	return ts, sc.Err()
}

// percentiles sets name_p50 and name_p99 from xs.
func (r *report) percentiles(name string, xs []float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r.set(name+"_p50", quantile(s, 0.50))
	r.set(name+"_p99", quantile(s, 0.99))
}

// maxTracedWindow bounds each window of a traced run.
const maxTracedWindow = 5 * time.Second

// runTraced measures the per-layer metrics: an untraced window (the
// reference for the tracing overhead and the stage budget), a window
// against a daemon writing its flight record, and the in-process probes
// of each layer on the workload's own requests.
func runTraced(cfg config, w *workloadSpec, launch launcher) (*report, error) {
	rep := newReport()
	// Two windows of half the run each, capped: the flight record of a
	// window grows with the job rate, and ingest-tiny settles ~130k jobs
	// a second.
	half := min(cfg.window()/2, maxTracedWindow)

	srv, clients, _, err := setUp(launch, false, w)
	if err != nil {
		return nil, err
	}
	rep.calibMS = calibrate(cfg.calibN)
	plain, err := measure(srv, clients, w, half, false)
	closeClients(clients)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	checkers := checkersOf(clients)

	srv, clients, _, err = setUp(launch, true, w)
	if err != nil {
		return nil, err
	}
	var before, after queueCounters
	var traced windowResult
	err = getJSON(srv.base+"/v1/metrics", &before)
	if err == nil {
		traced, err = measure(srv, clients, w, half, true)
	}
	if err == nil {
		err = getJSON(srv.base+"/v1/metrics", &after)
	}
	closeClients(clients)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	checkers = append(checkers, checkersOf(clients)...)
	ts, err := readTrace(srv.tracePath, traced.start)
	os.Remove(srv.tracePath)
	if err != nil {
		return nil, err
	}

	pr, err := probeLayers(w, cfg.probe)
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	var checkedN int
	rep.mismatches, checkedN = verify(checkers)
	rep.note("oracle: %d answers checked against direct runs, %d mismatches", checkedN, len(rep.mismatches))
	for _, win := range []*windowResult{&plain, &traced} {
		rep.attempted += win.t.attempted
		rep.failed += win.t.failed
		for _, e := range win.t.errs {
			rep.note("failure: %s", e)
		}
	}

	// The stage budget: nested self times that sum to the end-to-end
	// time per job by construction.
	e2e := 1e6 / plain.jobsPerSec()
	transport := e2e - pr.httpUS
	rep.set("budget.e2e_us_per_job", e2e)
	rep.set("budget.transport_us_per_job", transport)
	rep.set("budget.residual_frac", transport/e2e)
	rep.set("lopramhttp.us_per_job", pr.httpUS)
	rep.set("lopramhttp.self_us_per_job", pr.httpUS-pr.queueUS)
	rep.set("jobqueue.us_per_job", pr.queueUS)
	rep.set("jobqueue.self_us_per_job", pr.queueUS-pr.coreUS)
	rep.set("jobqueue.submit_ns_per_job", pr.submitNS)
	rep.set("core.us_per_job", pr.coreUS)
	rep.set("core.sim.run_us_mean", pr.engineUS[core.EngineSim])
	rep.set("core.palrt.run_us_mean", pr.engineUS[core.EnginePalrt])
	rep.set("core.pram.run_us_mean", pr.engineUS[core.EnginePRAM])
	rep.set("wire.bytes_per_job", pr.bytesPerJob)
	for name, v := range pr.codec {
		rep.set(name, v)
	}
	rep.note("budget: e2e %.3fus/job = transport %.3f + lopramhttp self %.3f + jobqueue self %.3f + core %.3f",
		e2e, transport, pr.httpUS-pr.queueUS, pr.queueUS-pr.coreUS, pr.coreUS)
	rep.note("probes: %d jobs per layer at %d-client concurrency", pr.jobs, len(w.clients))

	jobs := float64(traced.t.attempted)
	rep.set("jobqueue.hit_frac", float64(after.CacheHits-before.CacheHits)/jobs)
	rep.set("jobqueue.coalesce_frac", float64(after.Coalesced-before.Coalesced)/jobs)
	rep.set("jobqueue.exec_per_job", float64(after.Completed+after.Failed-before.Completed-before.Failed)/jobs)
	rep.set("jobqueue.reject_frac", float64(after.Rejected-before.Rejected)/jobs)
	rep.set("jobqueue.timeout_frac", float64(after.Timeouts-before.Timeouts)/jobs)
	rep.set("jobqueue.mutex_wait_ms_per_kjob", (after.MutexWaitS-before.MutexWaitS)*1e3/(jobs/1000))
	rep.percentiles("jobqueue.queue_wait_ms", ts.waitMS)
	rep.percentiles("jobqueue.run_ms", ts.runMS)
	var lag []float64
	for _, rc := range traced.t.receipts {
		if fin, ok := ts.finish[rc.id]; ok {
			lag = append(lag, float64(rc.at-fin)/1e6)
		}
	}
	rep.percentiles("jobqueue.settle_lag_ms", lag)
	rep.set("palrt.steal_frac", ratio(float64(ts.stolen), float64(ts.spawned)))
	rep.set("palrt.spawn_frac", ratio(float64(ts.spawned), float64(ts.spawned+ts.inlined)))
	dropped := after.TraceDropped - before.TraceDropped
	emitted := after.TraceRecords - before.TraceRecords
	rep.set("jobtrace.dropped_frac", ratio(float64(dropped), float64(emitted)))
	rep.set("jobtrace.overhead_frac", 1-traced.jobsPerSec()/plain.jobsPerSec())
	rep.note("trace: %d records from the window, %d executed, %d joined with client receipts", ts.records, len(ts.runMS), len(lag))
	if dropped > 0 {
		rep.note("trace percentiles are sampled: the recorder dropped %d of %d records", dropped, emitted)
	}
	rep.set("gen.cpu_ms_per_kjob", float64(plain.genCPU)/float64(time.Millisecond)/(float64(plain.t.attempted)/1000))
	rep.set("host.calib_ms", rep.calibMS)
	return rep, nil
}

func checkersOf(clients []*clientRun) []*checker {
	out := make([]*checker, len(clients))
	for i, cr := range clients {
		out[i] = cr.check
	}
	return out
}
