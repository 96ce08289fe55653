package lopramhttp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"lopram/internal/jobqueue"
	"lopram/internal/wire"
)

// Batch-first ingest: the two high-throughput submit shapes. Both ride
// the queue's pooled Batch path (jobqueue.Queue.NewBatch), so a
// steady-state client costs the server zero allocations per job, and
// both answer only after the submitted jobs settle — the batched
// wait/result shape of one POST /v1/jobs?wait=1 per spec, without the
// per-request round trip.

const (
	// maxBatchJobs caps one POST /v1/jobs:batch request (and one
	// pending NDJSON error report's index space); larger arrays are
	// refused with 413 / batch_too_large before any job is submitted.
	maxBatchJobs = 4096
	// streamChunk is the micro-batch size of POST /v1/jobs:stream:
	// specs are submitted and settled in groups of this many lines, so
	// result lines flow while the client is still producing.
	streamChunk = 64
	// maxStreamLine bounds one NDJSON request line (a single job spec
	// comfortably fits; a line this long is a protocol error).
	maxStreamLine = 1 << 20
)

// jobResult is one job's slot in a batch or stream response: the index
// pairs it with the submission order, and exactly one of result or
// error/code is set once the job settled.
type jobResult struct {
	Index  int              `json:"index"`
	ID     uint64           `json:"id,omitempty"`
	Status jobqueue.Status  `json:"status"`
	Result *jobqueue.Result `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
	Code   string           `json:"code,omitempty"`
}

// batchResponse is the POST /v1/jobs:batch reply: one jobResult per
// submitted spec, in submission order.
type batchResponse struct {
	Count int         `json:"count"`
	Jobs  []jobResult `json:"jobs"`
}

// streamTrailer is the final line of a POST /v1/jobs:stream response.
type streamTrailer struct {
	Done bool `json:"done"`
	Jobs int  `json:"jobs"`
}

// decodeSpecArray incrementally decodes a JSON array of job specs,
// refusing arrays longer than max without buffering them. The error
// return carries the HTTP status and envelope code to refuse with.
func decodeSpecArray(r io.Reader, max int) ([]jobqueue.Spec, int, string, error) {
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return nil, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		return nil, http.StatusBadRequest, codeBadRequest, errors.New("bad request body: want a JSON array of job specs")
	}
	var specs []jobqueue.Spec
	for dec.More() {
		if len(specs) == max {
			return nil, http.StatusRequestEntityTooLarge, codeBatchTooLarge,
				fmt.Errorf("batch exceeds %d jobs; split it or use /v1/jobs:stream", max)
		}
		var sp jobqueue.Spec
		if err := dec.Decode(&sp); err != nil {
			return nil, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad spec at index %d: %v", len(specs), err)
		}
		specs = append(specs, sp)
	}
	if _, err := dec.Token(); err != nil { // the closing ']'
		return nil, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	return specs, 0, "", nil
}

// settledResult reads the i-th outcome of a settled batch into the
// response slot for global index idx. Must run before Release — the
// frames recycle.
func settledResult(b *jobqueue.Batch, i, idx int) jobResult {
	out := jobResult{Index: idx, ID: b.ID(i)}
	res, err := b.Outcome(i)
	if err != nil {
		out.Status = jobqueue.StatusFailed
		out.Error = err.Error()
		_, out.Code = queueErr(err)
		return out
	}
	out.Status = jobqueue.StatusDone
	r := res
	out.Result = &r
	return out
}

// handleBatch serves POST /v1/jobs:batch: decode the spec array, submit
// it through one pooled batch, wait for every job to settle, answer
// with the outcome array. Jobs refused at admission (queue_full,
// deadline_infeasible, unknown_class, ...) occupy their slot with an
// error + code instead of failing the whole request.
func handleBatch(q *jobqueue.Queue, w http.ResponseWriter, r *http.Request) {
	specs, status, code, err := decodeSpecArray(r.Body, maxBatchJobs)
	if err != nil {
		writeErr(w, status, code, err.Error())
		return
	}
	resp := batchResponse{Count: len(specs), Jobs: []jobResult{}}
	if len(specs) == 0 {
		writeJSONCompact(w, http.StatusOK, resp)
		return
	}
	b := q.NewBatch()
	for _, sp := range specs {
		// Submission errors surface through the slot's Outcome.
		_ = b.Submit(sp)
	}
	ctx, cancel := context.WithTimeout(r.Context(), waitCap)
	defer cancel()
	if err := b.Wait(ctx); err != nil {
		// Frames still in flight: the batch must not be released (the
		// arena refills itself). The client is gone or out of patience.
		writeErr(w, http.StatusServiceUnavailable, codeUnavailable,
			fmt.Sprintf("batch abandoned before settling: %v", err))
		return
	}
	for i := range specs {
		resp.Jobs = append(resp.Jobs, settledResult(b, i, i))
	}
	b.Release()
	writeJSONCompact(w, http.StatusOK, resp)
}

// handleStream serves POST /v1/jobs:stream: a persistent NDJSON submit
// connection. Each request line is one job spec; specs are submitted in
// pooled micro-batches of streamChunk and, as each micro-batch settles,
// one {"index": N, ...} result line per job is written back in
// submission order. A malformed line ends the stream with one error
// envelope line (carrying the line's index); a clean EOF ends it with
// {"done": true, "jobs": N}. The response streams with 200 up front, so
// protocol errors after the first byte are reported in-band.
func handleStream(q *jobqueue.Queue, w http.ResponseWriter, r *http.Request) {
	// The handler keeps reading spec lines after result lines start
	// flowing; without full duplex the HTTP/1 server discards the
	// unread request body at the first response write. (The error is
	// ignored: HTTP/2 is duplex natively and rejects the call.)
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	// Result lines accumulate in a pooled buffer (shared with the
	// binary flavor) and each settled micro-batch flushes as a single
	// vectored Write, instead of one Write+Flush per line.
	lines := bytes.NewBuffer(wire.GetBuf())
	defer func() { wire.PutBuf(lines.Bytes()[:0]) }()
	enc := json.NewEncoder(lines)
	// emit writes the buffered lines (plus v, if non-nil) in one Write.
	emit := func(v any) bool {
		if v != nil {
			_ = enc.Encode(v)
		}
		if lines.Len() == 0 {
			return true
		}
		_, err := w.Write(lines.Bytes())
		lines.Reset()
		if fl != nil {
			fl.Flush()
		}
		return err == nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), waitCap)
	defer cancel()

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), maxStreamLine)

	b := q.NewBatch()
	defer func() {
		if b != nil { // nil after a wait failure: that batch leaks by contract
			b.Release()
		}
	}()
	base := 0 // global index of the micro-batch's first spec
	// flush settles the current micro-batch and streams its results. On
	// a wait failure the batch leaks to the GC by contract and the
	// stream ends; flush reports whether to continue.
	flush := func() bool {
		if b.Len() == 0 {
			return true
		}
		if err := b.Wait(ctx); err != nil {
			emit(map[string]string{"error": fmt.Sprintf("stream abandoned before settling: %v", err), "code": codeUnavailable})
			b = nil
			return false
		}
		for i := 0; i < b.Len(); i++ {
			_ = enc.Encode(settledResult(b, i, base+i))
		}
		base += b.Len()
		b.Release()
		b = q.NewBatch()
		return emit(nil)
	}

	line := 0
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 || allSpace(raw) {
			continue // blank lines are keepalives
		}
		var sp jobqueue.Spec
		if err := json.Unmarshal(raw, &sp); err != nil {
			if !flush() {
				return
			}
			emit(map[string]any{"index": line, "error": fmt.Sprintf("bad spec line: %v", err), "code": codeBadRequest})
			return
		}
		_ = b.Submit(sp) // submission errors surface through the slot
		line++
		if b.Len() == streamChunk {
			if !flush() {
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		if !flush() {
			return
		}
		emit(map[string]any{"index": base, "error": fmt.Sprintf("bad stream: %v", err), "code": codeBadRequest})
		return
	}
	if !flush() {
		return
	}
	emit(streamTrailer{Done: true, Jobs: base})
}

// allSpace reports whether the line is only ASCII whitespace.
func allSpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}
