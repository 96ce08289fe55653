package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
	"lopram/internal/wire"
)

// outcome is the deterministic part of a job's result: what the oracle
// compares. Sched and wall time depend on timing and are never compared.
type outcome struct {
	Value int64
	Check uint64
	Steps int64
	Work  int64
}

func outcomeOf(o core.Outcome) outcome {
	return outcome{Value: o.Value, Check: o.Check, Steps: o.Steps, Work: o.Work}
}

// answer is one job's result as a client decoded it.
type answer struct {
	id     uint64
	ok     bool
	cached bool
	out    outcome
	code   string // error code of a failed job
	at     time.Time
}

// encodeRequest builds the HTTP request of one client request in the
// client's protocol, appending the body to buf.
func encodeRequest(proto string, codec *wire.Codec, specs []jobqueue.Spec, buf []byte) (path, contentType string, body []byte, err error) {
	switch proto {
	case protoBinary:
		body = wire.AppendHello(buf[:0], wire.Version)
		for i := range specs {
			if body, err = codec.AppendSpec(body, &specs[i]); err != nil {
				return "", "", buf, err
			}
		}
		return "/v1/jobs:stream", wire.ContentType, body, nil
	case protoNDJSON:
		bb := bytes.NewBuffer(buf[:0])
		enc := json.NewEncoder(bb)
		for i := range specs {
			if err := enc.Encode(&specs[i]); err != nil {
				return "", "", buf, err
			}
		}
		return "/v1/jobs:stream", "application/x-ndjson", bb.Bytes(), nil
	case protoSingle:
		if len(specs) != 1 {
			return "", "", buf, fmt.Errorf("a single request carries one spec, not %d", len(specs))
		}
		b, err := json.Marshal(&specs[0])
		if err != nil {
			return "", "", buf, err
		}
		return "/v1/jobs?wait=1", "application/json", append(buf[:0], b...), nil
	}
	return "", "", buf, fmt.Errorf("unknown protocol %q", proto)
}

// conn is one client's HTTP connection to the server: its own transport
// limited to one connection, so the generator holds exactly one
// connection per client.
type conn struct {
	base  string
	proto string
	hc    *http.Client
	codec *wire.Codec
	body  []byte
	br    *bufio.Reader
}

func newConn(base, proto string, classes jobqueue.ClassSet) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, proto: proto, hc: &http.Client{Transport: tr},
		codec: wire.NewCodec(classes), br: wire.NewReader(nil)}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// exchange sends one request and calls got with each job's index in specs
// and its answer, as the answers arrive. An error means the exchange
// broke off; the jobs got was not called for have no answer.
func (c *conn) exchange(specs []jobqueue.Spec, got func(i int, a answer)) error {
	path, ctype, body, err := encodeRequest(c.proto, c.codec, specs, c.body)
	c.body = body
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch c.proto {
	case protoBinary:
		err = c.readFrames(resp, len(specs), got)
	case protoNDJSON:
		err = readLines(resp, len(specs), got)
	default:
		err = readSingle(resp, got)
	}
	// Drain so the transport can reuse the connection.
	_, _ = io.Copy(io.Discard, resp.Body)
	return err
}

func checkIndex(i, n int) error {
	if i < 0 || i >= n {
		return fmt.Errorf("answer index %d outside the request's %d jobs", i, n)
	}
	return nil
}

func (c *conn) readFrames(resp *http.Response, n int, got func(int, answer)) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/jobs:stream: %s", resp.Status)
	}
	c.br.Reset(resp.Body)
	defer c.br.Reset(nil)
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return fmt.Errorf("reading the server hello: %w", err)
	}
	if typ != wire.TypeHello {
		return fmt.Errorf("server opened with frame type %#x, want hello", typ)
	}
	if _, err := wire.DecodeHello(payload); err != nil {
		return err
	}
	var r wire.Result
	for {
		typ, payload, err := wire.ReadFrame(c.br)
		if err != nil {
			return fmt.Errorf("reading results: %w", err)
		}
		switch typ {
		case wire.TypeResult:
			if err := c.codec.DecodeResult(payload, &r); err != nil {
				return err
			}
			if err := checkIndex(r.Index, n); err != nil {
				return err
			}
			got(r.Index, answer{id: r.ID, ok: r.Done, cached: r.Res.Cached,
				out: outcomeOf(r.Res.Outcome), code: r.Code, at: time.Now()})
		case wire.TypeError:
			idx, code, msg, err := wire.DecodeError(payload)
			if err != nil {
				return err
			}
			return fmt.Errorf("server error at index %d: %s (%s)", idx, msg, code)
		case wire.TypeDone:
			jobs, err := wire.DecodeDone(payload)
			if err != nil {
				return err
			}
			if jobs != n {
				return fmt.Errorf("trailer reports %d jobs, sent %d", jobs, n)
			}
			return nil
		default:
			return fmt.Errorf("unexpected frame type %#x", typ)
		}
	}
}

// streamLine is every NDJSON response line's superset: a result line, an
// error envelope or the trailer.
type streamLine struct {
	Index  int              `json:"index"`
	ID     uint64           `json:"id"`
	Status string           `json:"status"`
	Result *jobqueue.Result `json:"result"`
	Error  string           `json:"error"`
	Code   string           `json:"code"`
	Done   bool             `json:"done"`
	Jobs   int              `json:"jobs"`
}

func readLines(resp *http.Response, n int, got func(int, answer)) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/jobs:stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("bad response line: %w", err)
		}
		switch {
		case l.Done:
			if l.Jobs != n {
				return fmt.Errorf("trailer reports %d jobs, sent %d", l.Jobs, n)
			}
			return nil
		case l.Status != "":
			if err := checkIndex(l.Index, n); err != nil {
				return err
			}
			a := answer{id: l.ID, ok: l.Status == jobqueue.StatusDone.String() && l.Result != nil,
				code: l.Code, at: time.Now()}
			if a.ok {
				a.cached = l.Result.Cached
				a.out = outcomeOf(l.Result.Outcome)
			}
			got(l.Index, a)
		default:
			return fmt.Errorf("server error at index %d: %s (%s)", l.Index, l.Error, l.Code)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream ended without a trailer")
}

// jobView is the part of a POST /v1/jobs response the client reads; an
// error envelope fills only Code.
type jobView struct {
	ID     uint64           `json:"id"`
	Status string           `json:"status"`
	Result *jobqueue.Result `json:"result"`
	Code   string           `json:"code"`
}

func readSingle(resp *http.Response, got func(int, answer)) error {
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return fmt.Errorf("POST /v1/jobs: %s: %w", resp.Status, err)
	}
	a := answer{id: v.ID, code: v.Code, at: time.Now()}
	if resp.StatusCode == http.StatusOK && v.Status == jobqueue.StatusDone.String() && v.Result != nil {
		a.ok = true
		a.cached = v.Result.Cached
		a.out = outcomeOf(v.Result.Outcome)
	} else if a.code == "" {
		a.code = fmt.Sprintf("http %d, status %q", resp.StatusCode, v.Status)
	}
	got(0, a)
	return nil
}
