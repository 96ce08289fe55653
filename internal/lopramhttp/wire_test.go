package lopramhttp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
	"lopram/internal/jobtrace"
	"lopram/internal/scenario"
	"lopram/internal/wire"
)

// postWire sends raw bytes to /v1/jobs:stream with the binary content
// type and returns the full response body.
func postWire(t *testing.T, url string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs:stream", wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out
}

// respFrame is one parsed response frame (payload copied out of the
// reader buffer).
type respFrame struct {
	typ     byte
	payload []byte
}

// parseFrames splits a response body into frames, failing on framing
// errors — the handler's contract is that every response is a
// well-formed frame sequence no matter what the request was.
func parseFrames(t *testing.T, body []byte) []respFrame {
	t.Helper()
	br := wire.NewReader(bytes.NewReader(body))
	var out []respFrame
	for {
		typ, p, err := wire.ReadFrame(br)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("response frame %d: %v (body %x)", len(out), err, body)
		}
		out = append(out, respFrame{typ, append([]byte(nil), p...)})
	}
}

// TestWireStreamEndpoint drives the binary flavor end to end through
// raw frames: hello negotiation, per-slot results in submission order
// (an invalid spec occupies its slot as a failed result), and the done
// trailer.
func TestWireStreamEndpoint(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 2})
	codec := wire.NewCodec(jobqueue.DefaultClasses(0))

	specs := []jobqueue.Spec{
		{Algorithm: "reduce", N: 64, P: 2, Engine: core.EngineSim, Seed: 1},
		{Algorithm: "reduce", N: 64, P: 65, Engine: core.EngineSim, Seed: 1}, // p > MaxProcs: refused at admission
		{Algorithm: "reduce", N: 64, P: 2, Engine: core.EngineSim, Seed: 1},  // dup of slot 0
	}
	body := wire.AppendHello(nil, wire.Version)
	var err error
	for i := range specs {
		if body, err = codec.AppendSpec(body, &specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	status, ct, resp := postWire(t, srv.URL, body)
	if status != http.StatusOK || ct != wire.ContentType {
		t.Fatalf("status %d, content type %q; want 200 %q", status, ct, wire.ContentType)
	}
	frames := parseFrames(t, resp)
	if len(frames) != 5 {
		t.Fatalf("got %d frames, want hello + 3 results + done", len(frames))
	}
	if frames[0].typ != wire.TypeHello {
		t.Fatalf("frame 0 type %#x, want hello", frames[0].typ)
	}
	if ver, err := wire.DecodeHello(frames[0].payload); err != nil || ver != wire.Version {
		t.Fatalf("server hello = %d, %v", ver, err)
	}
	var results []wire.Result
	for _, f := range frames[1:4] {
		if f.typ != wire.TypeResult {
			t.Fatalf("frame type %#x, want result", f.typ)
		}
		var r wire.Result
		if err := codec.DecodeResult(f.payload, &r); err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
	}
	if !results[0].Done || results[0].ID == 0 {
		t.Fatalf("slot 0 = %+v, want done with an id", results[0])
	}
	if results[1].Done || results[1].Code != "bad_request" || !strings.Contains(results[1].Err, "p must be") {
		t.Fatalf("slot 1 = %+v, want a bad_request failure", results[1])
	}
	if !results[2].Done {
		t.Fatalf("slot 2 = %+v, want done", results[2])
	}
	if results[0].Res.Value != results[2].Res.Value || results[0].Res.Check != results[2].Res.Check {
		t.Fatalf("dup outcome diverged: %+v vs %+v", results[0].Res, results[2].Res)
	}
	if frames[4].typ != wire.TypeDone {
		t.Fatalf("last frame type %#x, want done", frames[4].typ)
	}
	if jobs, err := wire.DecodeDone(frames[4].payload); err != nil || jobs != 3 {
		t.Fatalf("trailer = %d, %v; want 3", jobs, err)
	}
}

// TestWireClientRoundTrip exercises the same exchange through
// wire.Client — the path BenchmarkJobQueueHTTPJobsPerSec uses.
func TestWireClientRoundTrip(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 2})
	for _, proto := range []string{wire.ProtoBinary, wire.ProtoJSON} {
		t.Run(proto, func(t *testing.T) {
			cl, err := wire.NewClient(srv.Client(), srv.URL, proto, nil)
			if err != nil {
				t.Fatal(err)
			}
			specs := []jobqueue.Spec{
				{Algorithm: "reduce", N: 64, P: 2, Engine: core.EngineSim, Seed: 7},
				{Algorithm: "reduce", N: 128, P: 2, Engine: core.EngineSim, Seed: 8},
			}
			results, err := cl.Stream(specs)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 2 {
				t.Fatalf("got %d results, want 2", len(results))
			}
			for i, r := range results {
				if r.Index != i || !r.Done || r.ID == 0 {
					t.Fatalf("result %d = %+v, want done with an id", i, r)
				}
				if r.Res.Work == 0 {
					t.Fatalf("result %d outcome = %+v, want sim work", i, r.Res)
				}
			}
		})
	}
}

// TestWireStreamRejects covers the in-band refusals: every bad opening
// gets a 200 with a single well-formed error frame carrying
// bad_request, never a panic or a naked connection drop.
func TestWireStreamRejects(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 1})
	cases := []struct {
		name    string
		body    []byte
		wantMsg string
	}{
		{"empty body", nil, "hello"},
		{"json body with wire content type", []byte(`{"algorithm":"reduce"}`), "hello"},
		{"bad magic", func() []byte {
			b := wire.AppendHello(nil, wire.Version)
			b[2] = 'X' // inside the magic
			return b
		}(), "hello"},
		{"future version", wire.AppendHello(nil, 99), "unsupported wire version 99"},
		{"unknown frame after hello", append(wire.AppendHello(nil, wire.Version), 0x02, 0x7f, 0x00), "unexpected frame type"},
		{"truncated frame after hello", append(wire.AppendHello(nil, wire.Version), 0x50, wire.TypeSpec), "bad frame"},
		{"oversized frame after hello", append(wire.AppendHello(nil, wire.Version), 0xff, 0xff, 0xff, 0x7f), "bad frame"},
		// length 8, then: type, algID=200 (uvarint 0xc8 0x01), engine 1,
		// n=8, p=1, seed=1, flags 0 — a well-framed spec with an
		// out-of-range algorithm id.
		{"bad spec ids", append(wire.AppendHello(nil, wire.Version),
			0x08, wire.TypeSpec, 0xc8, 0x01, 0x01, 0x08, 0x01, 0x01, 0x00), "bad spec frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, resp := postWire(t, srv.URL, tc.body)
			if status != http.StatusOK {
				t.Fatalf("status %d, want 200 (errors are in-band)", status)
			}
			frames := parseFrames(t, resp)
			last := frames[len(frames)-1]
			if last.typ != wire.TypeError {
				t.Fatalf("last frame type %#x, want error (frames: %d)", last.typ, len(frames))
			}
			_, code, msg, err := wire.DecodeError(last.payload)
			if err != nil {
				t.Fatal(err)
			}
			if code != codeBadRequest {
				t.Fatalf("code %q, want %q", code, codeBadRequest)
			}
			if !strings.Contains(msg, tc.wantMsg) {
				t.Fatalf("message %q does not mention %q", msg, tc.wantMsg)
			}
		})
	}
}

// TestWireContentNegotiation pins the opt-in rule: parameters on the
// media type still select binary, and everything else still gets
// NDJSON on the same route.
func TestWireContentNegotiation(t *testing.T) {
	srv := testServer(t, jobqueue.Config{Workers: 1})
	resp, err := http.Post(srv.URL+"/v1/jobs:stream", wire.ContentType+"; v=1",
		bytes.NewReader(wire.AppendHello(nil, wire.Version)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("parameterized content type drew %q, want the binary flavor", ct)
	}
	resp2, err := http.Post(srv.URL+"/v1/jobs:stream", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("NDJSON request drew %q", ct)
	}
}

// replaySignature is the scheduling-independent projection of a trace:
// the sorted multiset of (disposition, class, key) with the
// timing-dependent hit/coalesce split collapsed to "dup" — the same
// projection the golden trace test pins.
func replaySignature(recs []jobtrace.Record) []string {
	lines := make([]string, 0, len(recs))
	for _, r := range recs {
		d := r.Disposition
		if d == jobtrace.DispositionHit || d == jobtrace.DispositionCoalesce {
			d = "dup"
		}
		lines = append(lines, fmt.Sprintf("%s %s %s", d, r.Class, r.Key))
	}
	sort.Strings(lines)
	return lines
}

// tracedQueue builds a queue for the scenario with a JSONL trace writer
// attached; done() closes the queue, flushes, and returns the records.
func tracedQueue(t *testing.T, sp scenario.Spec) (*jobqueue.Queue, func() []jobtrace.Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := jobtrace.NewWriter(f)
	cfg := scenario.QueueConfig(sp)
	cfg.TraceSink = tw
	q := jobqueue.New(cfg)
	return q, func() []jobtrace.Record {
		q.Close()
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := jobtrace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
}

// TestCrossProtocolEquivalence proves the binary wire is semantically
// invisible: replaying cache-friendly-repeat's exact job stream over
// the binary protocol produces the same replay signature — executed
// exactly once per key, every duplicate served without execution, same
// classes — as the NDJSON protocol and as in-process ingest.
func TestCrossProtocolEquivalence(t *testing.T) {
	sp, ok := scenario.Builtin("cache-friendly-repeat")
	if !ok {
		t.Fatal("builtin cache-friendly-repeat missing")
	}
	specs, err := scenario.Stream(sp)
	if err != nil {
		t.Fatal(err)
	}

	// In-process arm: the scenario runner's own ingest.
	q, done := tracedQueue(t, sp)
	if _, err := scenario.Run(context.Background(), q, sp); err != nil {
		t.Fatal(err)
	}
	want := replaySignature(done())

	for _, proto := range []string{wire.ProtoJSON, wire.ProtoBinary} {
		t.Run(proto, func(t *testing.T) {
			q, done := tracedQueue(t, sp)
			srv := httptest.NewServer(NewMux(q))
			defer srv.Close()
			cl, err := wire.NewClient(srv.Client(), srv.URL, proto, q.Classes())
			if err != nil {
				t.Fatal(err)
			}
			results, err := cl.Stream(specs)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(specs) {
				t.Fatalf("got %d results for %d specs", len(results), len(specs))
			}
			for i, r := range results {
				if !r.Done {
					t.Fatalf("slot %d failed: %s (%s)", i, r.Err, r.Code)
				}
			}
			got := replaySignature(done())
			if len(got) != len(want) {
				t.Fatalf("signature has %d lines, in-process has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("signature diverges from in-process at line %d:\n  got:  %s\n  want: %s", i, got[i], want[i])
				}
			}
		})
	}
}
