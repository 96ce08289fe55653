package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"lopram/internal/jobqueue"
)

// Stream protocol names, as NewClient takes them.
const (
	// ProtoJSON selects the NDJSON flavor of POST /v1/jobs:stream —
	// the server default.
	ProtoJSON = "json"
	// ProtoBinary selects the length-prefixed binary flavor.
	ProtoBinary = "binary"
)

// Client submits job specs over POST /v1/jobs:stream in either wire
// flavor. Both flavors build the whole request body up front (pooled
// buffers, append-style encoders), POST it, and parse the streamed
// response into []Result — so the two flavors differ only in codec,
// never in request shape.
type Client struct {
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Proto is ProtoJSON or ProtoBinary.
	Proto string
	// Codec translates names to wire ids (binary flavor only). Its
	// class table must match the serving queue's class set.
	Codec *Codec
}

// NewClient builds a stream client for the given server root and
// protocol. classes is the serving queue's class set (nil if no spec
// will name a priority class); it only matters for ProtoBinary.
func NewClient(httpc *http.Client, base, proto string, classes jobqueue.ClassSet) (*Client, error) {
	switch proto {
	case ProtoJSON, ProtoBinary:
	default:
		return nil, fmt.Errorf("wire: unknown protocol %q (want %q or %q)", proto, ProtoJSON, ProtoBinary)
	}
	return &Client{
		HTTP:  httpc,
		Base:  strings.TrimSuffix(base, "/"),
		Proto: proto,
		Codec: NewCodec(classes),
	}, nil
}

// Stream submits the specs in order over one POST /v1/jobs:stream
// request and returns the settled results in the same order. In-band
// server errors (a bad spec, an abandoned stream, a version mismatch)
// come back as the error; results settled before the error are still
// returned alongside it.
func (c *Client) Stream(specs []jobqueue.Spec) ([]Result, error) {
	if c.Proto == ProtoBinary {
		return c.streamBinary(specs)
	}
	return c.streamJSON(specs)
}

// httpc returns the effective HTTP client.
func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// post sends body as one POST /v1/jobs:stream request and checks for a
// streaming 200.
func (c *Client) post(contentType string, body []byte) (*http.Response, error) {
	resp, err := c.httpc().Post(c.Base+"/v1/jobs:stream", contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("wire: POST /v1/jobs:stream: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// streamBinary speaks the length-prefixed protocol: hello + one spec
// frame per job out, hello + result frames + trailer back.
func (c *Client) streamBinary(specs []jobqueue.Spec) ([]Result, error) {
	body := GetBuf()
	defer PutBuf(body)
	body = AppendHello(body, Version)
	var err error
	for i := range specs {
		if body, err = c.Codec.AppendSpec(body, &specs[i]); err != nil {
			return nil, fmt.Errorf("wire: spec %d: %w", i, err)
		}
	}
	resp, err := c.post(ContentType, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	br := GetReader(resp.Body)
	defer PutReader(br)

	typ, payload, err := ReadFrame(br)
	if err != nil {
		return nil, fmt.Errorf("wire: reading server hello: %w", err)
	}
	switch typ {
	case TypeHello:
		ver, err := DecodeHello(payload)
		if err != nil {
			return nil, fmt.Errorf("wire: bad server hello: %w", err)
		}
		if ver != Version {
			return nil, fmt.Errorf("wire: server speaks version %d, client speaks %d", ver, Version)
		}
	case TypeError:
		idx, code, msg, derr := DecodeError(payload)
		if derr != nil {
			return nil, fmt.Errorf("wire: bad server error frame: %w", derr)
		}
		return nil, fmt.Errorf("wire: server error at index %d: %s (%s)", idx, msg, code)
	default:
		return nil, fmt.Errorf("wire: server opened with frame type %#x, want hello", typ)
	}

	results := make([]Result, 0, len(specs))
	for {
		typ, payload, err := ReadFrame(br)
		if err != nil {
			if err == io.EOF {
				return results, fmt.Errorf("wire: stream ended without a trailer")
			}
			return results, fmt.Errorf("wire: reading results: %w", err)
		}
		switch typ {
		case TypeResult:
			var r Result
			if err := c.Codec.DecodeResult(payload, &r); err != nil {
				return results, fmt.Errorf("wire: bad result frame: %w", err)
			}
			results = append(results, r)
		case TypeError:
			idx, code, msg, derr := DecodeError(payload)
			if derr != nil {
				return results, fmt.Errorf("wire: bad server error frame: %w", derr)
			}
			return results, fmt.Errorf("wire: server error at index %d: %s (%s)", idx, msg, code)
		case TypeDone:
			jobs, derr := DecodeDone(payload)
			if derr != nil {
				return results, fmt.Errorf("wire: bad trailer: %w", derr)
			}
			if jobs != len(results) {
				return results, fmt.Errorf("wire: trailer reports %d jobs, got %d results", jobs, len(results))
			}
			// Drain to EOF so the transport returns the connection to
			// its idle pool instead of redialing the next stream.
			_, _ = io.Copy(io.Discard, resp.Body)
			return results, nil
		default:
			return results, fmt.Errorf("wire: unexpected frame type %#x in response", typ)
		}
	}
}

// jsonLine is the superset of every NDJSON response line: a result
// line carries status, an error envelope carries error/code without a
// status, and the trailer carries done/jobs.
type jsonLine struct {
	Index  int              `json:"index"`
	ID     uint64           `json:"id"`
	Status string           `json:"status"`
	Result *jobqueue.Result `json:"result"`
	Error  string           `json:"error"`
	Code   string           `json:"code"`
	Done   bool             `json:"done"`
	Jobs   int              `json:"jobs"`
}

// streamJSON speaks the NDJSON flavor: one spec line per job out, one
// result line per job plus a trailer back.
func (c *Client) streamJSON(specs []jobqueue.Spec) ([]Result, error) {
	body := GetBuf()
	defer PutBuf(body)
	bb := bytes.NewBuffer(body)
	enc := json.NewEncoder(bb)
	for i := range specs {
		if err := enc.Encode(&specs[i]); err != nil {
			return nil, fmt.Errorf("wire: encoding spec %d: %w", i, err)
		}
	}
	resp, err := c.post("application/x-ndjson", bb.Bytes())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	results := make([]Result, 0, len(specs))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line jsonLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return results, fmt.Errorf("wire: bad response line: %w", err)
		}
		switch {
		case line.Done:
			if line.Jobs != len(results) {
				return results, fmt.Errorf("wire: trailer reports %d jobs, got %d results", line.Jobs, len(results))
			}
			// Drain to EOF so the transport returns the connection to
			// its idle pool instead of redialing the next stream.
			_, _ = io.Copy(io.Discard, resp.Body)
			return results, nil
		case line.Status != "":
			r := Result{Index: line.Index, ID: line.ID, Code: line.Code, Err: line.Error}
			if line.Status == jobqueue.StatusDone.String() {
				r.Done = true
				if line.Result != nil {
					r.Res = *line.Result
				}
			}
			results = append(results, r)
		default:
			return results, fmt.Errorf("wire: server error at index %d: %s (%s)", line.Index, line.Error, line.Code)
		}
	}
	if err := sc.Err(); err != nil {
		return results, fmt.Errorf("wire: reading response: %w", err)
	}
	return results, fmt.Errorf("wire: stream ended without a trailer")
}
