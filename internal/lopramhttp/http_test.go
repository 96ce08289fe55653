package lopramhttp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lopram/internal/jobqueue"
)

func testServer(t *testing.T, cfg jobqueue.Config) *httptest.Server {
	t.Helper()
	q := jobqueue.New(cfg)
	t.Cleanup(q.Close)
	srv := httptest.NewServer(NewMux(q))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestBatchEndpoint: a mixed array — valid specs settle with results in
// submission order, an invalid spec occupies its slot with an error and
// code instead of failing the request.
func TestBatchEndpoint(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 2})
	body := `[
		{"algorithm":"reduce","n":64,"p":2,"engine":"sim","seed":1},
		{"algorithm":"no-such-algorithm","n":64,"engine":"sim"},
		{"algorithm":"reduce","n":64,"p":2,"engine":"sim","seed":2}
	]`
	resp := postJSON(t, srv.URL+"/v1/jobs:batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Count int `json:"count"`
		Jobs  []struct {
			Index  int              `json:"index"`
			ID     uint64           `json:"id"`
			Status string           `json:"status"`
			Result *jobqueue.Result `json:"result"`
			Error  string           `json:"error"`
			Code   string           `json:"code"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 3 || len(out.Jobs) != 3 {
		t.Fatalf("count = %d, jobs = %d, want 3/3", out.Count, len(out.Jobs))
	}
	for i, j := range out.Jobs {
		if j.Index != i {
			t.Errorf("jobs[%d].index = %d", i, j.Index)
		}
	}
	for _, i := range []int{0, 2} {
		j := out.Jobs[i]
		if j.Status != "done" || j.Result == nil || j.ID == 0 {
			t.Errorf("jobs[%d] = %+v, want settled result with an ID", i, j)
		}
	}
	if bad := out.Jobs[1]; bad.Status != "failed" || bad.Error == "" || bad.Code != "bad_request" {
		t.Errorf("jobs[1] = %+v, want failed with bad_request", bad)
	}
}

// TestBatchEndpointDuplicates: duplicate specs in one batch coalesce or
// hit the cache but every slot still settles with the same value.
func TestBatchEndpointDuplicates(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 2})
	var specs []string
	for i := 0; i < 12; i++ {
		specs = append(specs, fmt.Sprintf(`{"algorithm":"reduce","n":64,"p":2,"engine":"sim","seed":%d}`, i%3))
	}
	resp := postJSON(t, srv.URL+"/v1/jobs:batch", "["+strings.Join(specs, ",")+"]")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Count int `json:"count"`
		Jobs  []struct {
			Result *jobqueue.Result `json:"result"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 12 {
		t.Fatalf("count = %d, want 12", out.Count)
	}
	valueBySeed := map[uint64]int64{}
	for i, j := range out.Jobs {
		if j.Result == nil {
			t.Fatalf("jobs[%d] unsettled: %+v", i, j)
		}
		seed := uint64(i % 3)
		if v, ok := valueBySeed[seed]; ok && v != j.Result.Value {
			t.Errorf("seed %d value diverged: %v vs %v", seed, v, j.Result.Value)
		}
		valueBySeed[seed] = j.Result.Value
	}
}

// TestBatchEndpointEmpty: an empty array is a 200 with zero slots.
func TestBatchEndpointEmpty(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 1})
	resp := postJSON(t, srv.URL+"/v1/jobs:batch", `[]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Count int               `json:"count"`
		Jobs  []json.RawMessage `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 0 || len(out.Jobs) != 0 {
		t.Fatalf("count = %d, jobs = %v, want empty", out.Count, out.Jobs)
	}
}

// TestBatchEndpointMalformed: non-array bodies and truncated arrays are
// a 400 envelope, submitted nothing.
func TestBatchEndpointMalformed(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 1})
	for _, body := range []string{
		`{"algorithm":"reduce"}`, // an object, not an array
		`[{"algorithm":"reduce","n":64`,
		`not json at all`,
		``,
		`[{"n": "sixty-four"}]`,
	} {
		resp := postJSON(t, srv.URL+"/v1/jobs:batch", body)
		var env struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("body %q: decoding envelope: %v", body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Code != "bad_request" || env.Error == "" {
			t.Errorf("body %q: status %d code %q error %q, want 400 bad_request",
				body, resp.StatusCode, env.Code, env.Error)
		}
	}
}

// TestBatchEndpointTooLarge: one spec past maxBatchJobs refuses the
// whole request with 413 / batch_too_large before submitting anything.
func TestBatchEndpointTooLarge(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 1})
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i := 0; i <= maxBatchJobs; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"algorithm":"reduce","n":64,"p":2,"engine":"sim","seed":%d}`, i)
	}
	buf.WriteByte(']')
	resp := postJSON(t, srv.URL+"/v1/jobs:batch", buf.String())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var env struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Code != "batch_too_large" {
		t.Fatalf("code = %q, want batch_too_large", env.Code)
	}
}

// TestStreamEndpoint: NDJSON in, indexed NDJSON out across multiple
// micro-batches, blank keepalive lines skipped, trailer last.
func TestStreamEndpoint(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 2})
	const jobs = streamChunk*2 + 5 // three micro-batches, last partial
	var buf bytes.Buffer
	for i := 0; i < jobs; i++ {
		fmt.Fprintf(&buf, `{"algorithm":"reduce","n":64,"p":2,"engine":"sim","seed":%d}`+"\n", i%7)
		if i%10 == 0 {
			buf.WriteString("\n") // keepalive
		}
	}
	resp, err := http.Post(srv.URL+"/v1/jobs:stream", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	next := 0
	sawTrailer := false
	for sc.Scan() {
		var line struct {
			Index  *int             `json:"index"`
			Status string           `json:"status"`
			Result *jobqueue.Result `json:"result"`
			Error  string           `json:"error"`
			Done   bool             `json:"done"`
			Jobs   int              `json:"jobs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		if line.Done {
			sawTrailer = true
			if line.Jobs != jobs {
				t.Errorf("trailer jobs = %d, want %d", line.Jobs, jobs)
			}
			continue
		}
		if sawTrailer {
			t.Fatalf("line after trailer: %q", sc.Text())
		}
		if line.Index == nil || *line.Index != next {
			t.Fatalf("result line %q: want index %d", sc.Text(), next)
		}
		if line.Status != "done" || line.Result == nil || line.Error != "" {
			t.Errorf("line %d = %q, want a settled result", next, sc.Text())
		}
		next++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if next != jobs || !sawTrailer {
		t.Fatalf("got %d result lines (want %d), trailer %v", next, jobs, sawTrailer)
	}
}

// TestStreamEndpointMalformedLine: a garbage line settles the pending
// micro-batch, reports one indexed error envelope line, and ends the
// stream — no trailer.
func TestStreamEndpointMalformedLine(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 2})
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&buf, `{"algorithm":"reduce","n":64,"p":2,"engine":"sim","seed":%d}`+"\n", i)
	}
	buf.WriteString("}{ not json\n")
	buf.WriteString(`{"algorithm":"reduce","n":64,"p":2,"engine":"sim","seed":9}` + "\n")
	resp, err := http.Post(srv.URL+"/v1/jobs:stream", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines %v, want 3 results + 1 error", len(lines), lines)
	}
	last := lines[3]
	if last["code"] != "bad_request" || last["index"] != float64(3) || last["done"] == true {
		t.Fatalf("last line = %v, want indexed bad_request error", last)
	}
	for i, m := range lines[:3] {
		if m["index"] != float64(i) || m["status"] != "done" {
			t.Errorf("line %d = %v, want settled result", i, m)
		}
	}
}

// TestSubmitWait: POST /v1/jobs?wait=1 answers 200 with the settled
// result in one round trip.
func TestSubmitWait(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 1})
	resp := postJSON(t, srv.URL+"/v1/jobs?wait=1", `{"algorithm":"reduce","n":64,"p":2,"engine":"sim","seed":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var view struct {
		Status string           `json:"status"`
		Result *jobqueue.Result `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Status != "done" || view.Result == nil {
		t.Fatalf("view = %+v, want done with result", view)
	}
}

// TestSubmitCoalescedOwnID: a POST /v1/jobs whose spec is already in
// flight answers 202 with its own job id, and that id resolves at
// GET /v1/jobs/{id} to the shared run's result.
func TestSubmitCoalescedOwnID(t *testing.T) {
	q := jobqueue.New(jobqueue.Config{Workers: 1})
	t.Cleanup(q.Close)
	srv := httptest.NewServer(NewMux(q))
	t.Cleanup(srv.Close)
	// Hold the only worker so the first submission stays in flight.
	release := make(chan struct{})
	blocker, err := q.SubmitFunc("blocker", func(context.Context) error { <-release; return nil })
	if err != nil {
		t.Fatal(err)
	}
	const spec = `{"algorithm":"reduce","n":64,"p":2,"engine":"sim","seed":4}`
	type view struct {
		ID     uint64           `json:"id"`
		Status string           `json:"status"`
		Result *jobqueue.Result `json:"result"`
	}
	submit := func() view {
		resp := postJSON(t, srv.URL+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status = %d, want 202", resp.StatusCode)
		}
		var v view
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	first, dup := submit(), submit()
	if dup.ID == first.ID {
		t.Fatalf("coalesced submission answered with the in-flight job's id %d", first.ID)
	}
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d?wait=1", srv.URL, dup.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got view
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || got.Status != "done" || got.Result == nil {
		t.Fatalf("GET coalesced id: status %d, view %+v, want 200 done with result", resp.StatusCode, got)
	}
	if m := q.Snapshot(); m.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", m.Coalesced)
	}
}
