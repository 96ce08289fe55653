package lopramhttp

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"lopram/internal/jobqueue"
	"lopram/internal/wire"
)

// The binary flavor of POST /v1/jobs:stream: same route, same
// micro-batch semantics as the NDJSON loop, but specs and results
// travel as length-prefixed frames (internal/wire) instead of JSON
// lines. The loop decodes every spec frame into one reused Spec and
// stamps it straight into a pooled job frame (Batch.SubmitSpec), and
// flushes each settled micro-batch's result frames with a single
// vectored Write — so a steady-state stream costs zero allocations
// per job on the server.

// isWireRequest reports whether the request opted into the binary
// framing via Content-Type (parameters after ';' are ignored).
func isWireRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == wire.ContentType
}

// appendWireResult encodes the i-th outcome of a settled batch as a
// result frame for global index idx. Must run before Release — the
// frames recycle.
func appendWireResult(out []byte, b *jobqueue.Batch, i, idx int) []byte {
	res, err := b.Outcome(i)
	if err != nil {
		_, code := queueErr(err)
		return wire.AppendResultError(out, idx, b.ID(i), code, err.Error())
	}
	return wire.AppendResult(out, idx, b.ID(i), res)
}

// handleWireStream serves the binary flavor of POST /v1/jobs:stream.
// The exchange starts with a hello in each direction (client first;
// a version the server does not speak is refused with an in-band
// error frame). Then each client spec frame occupies one result slot,
// micro-batches of streamChunk settle together, and each settled
// micro-batch's result frames flush as one Write in submission order.
// A malformed frame ends the stream with one error frame carrying the
// offending spec index; a clean EOF ends it with a done trailer. The
// response streams with 200 up front, mirroring the NDJSON contract:
// everything after the first byte is reported in-band.
func handleWireStream(q *jobqueue.Queue, w http.ResponseWriter, r *http.Request) {
	// Full duplex for the same reason as the NDJSON loop: result
	// frames start flowing while spec frames are still being read.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	out := wire.GetBuf()
	defer func() { wire.PutBuf(out) }()
	// flushOut writes the pending frames as one vectored Write and
	// reports whether the client is still there.
	flushOut := func() bool {
		if len(out) == 0 {
			return true
		}
		_, err := w.Write(out)
		out = out[:0]
		if fl != nil {
			fl.Flush()
		}
		return err == nil
	}

	br := wire.GetReader(r.Body)
	defer wire.PutReader(br)
	typ, payload, err := wire.ReadFrame(br)
	if err != nil || typ != wire.TypeHello {
		out = wire.AppendError(out, 0, codeBadRequest, "binary stream must open with a hello frame")
		flushOut()
		return
	}
	ver, err := wire.DecodeHello(payload)
	if err != nil {
		out = wire.AppendError(out, 0, codeBadRequest, "bad hello frame: "+err.Error())
		flushOut()
		return
	}
	if ver != wire.Version {
		out = wire.AppendError(out, 0, codeBadRequest,
			fmt.Sprintf("unsupported wire version %d (server speaks %d)", ver, wire.Version))
		flushOut()
		return
	}
	out = wire.AppendHello(out, wire.Version)
	if !flushOut() {
		return
	}

	codec := wire.NewCodec(q.Classes())
	ctx, cancel := context.WithTimeout(r.Context(), waitCap)
	defer cancel()

	b := q.NewBatch()
	defer func() {
		if b != nil { // nil after a wait failure: that batch leaks by contract
			b.Release()
		}
	}()
	base := 0 // global index of the micro-batch's first spec
	// flush settles the current micro-batch and appends its result
	// frames; one Write carries them all. On a wait failure the batch
	// leaks to the GC by contract and the stream ends.
	flush := func() bool {
		if b.Len() == 0 {
			return true
		}
		if err := b.Wait(ctx); err != nil {
			out = wire.AppendError(out, base, codeUnavailable, "stream abandoned before settling: "+err.Error())
			b = nil
			flushOut()
			return false
		}
		for i := 0; i < b.Len(); i++ {
			out = appendWireResult(out, b, i, base+i)
		}
		base += b.Len()
		b.Release()
		b = q.NewBatch()
		return flushOut()
	}

	line := 0 // spec frames accepted so far; the index error frames carry
	var spec jobqueue.Spec
	for {
		typ, payload, err := wire.ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !flush() {
				return
			}
			out = wire.AppendError(out, line, codeBadRequest, "bad frame: "+err.Error())
			flushOut()
			return
		}
		if typ != wire.TypeSpec {
			if !flush() {
				return
			}
			out = wire.AppendError(out, line, codeBadRequest,
				fmt.Sprintf("unexpected frame type %#x (want a spec frame)", typ))
			flushOut()
			return
		}
		if err := codec.DecodeSpec(payload, &spec); err != nil {
			if !flush() {
				return
			}
			out = wire.AppendError(out, line, codeBadRequest, "bad spec frame: "+err.Error())
			flushOut()
			return
		}
		_ = b.SubmitSpec(&spec) // submission errors surface through the slot
		line++
		if b.Len() == streamChunk {
			if !flush() {
				return
			}
		}
	}
	if !flush() {
		return
	}
	out = wire.AppendDone(out, base)
	flushOut()
}
