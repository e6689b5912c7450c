package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"crowdtopk/internal/dataset"
)

// Reply shapes of the v1 routes. Each route also lists the fields its reply
// must carry (documented in the service views), checked before decoding so a
// renamed or dropped field counts as a failed operation.
type createReply struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Tuples    int    `json:"tuples"`
	Asked     int    `json:"asked"`
	Budget    int    `json:"budget"`
	Pending   int    `json:"pending"`
	Orderings int    `json:"orderings"`
}

type wireQuestion struct {
	I      int    `json:"i"`
	J      int    `json:"j"`
	Prompt string `json:"prompt"`
}

type questionsReply struct {
	State     string         `json:"state"`
	Questions []wireQuestion `json:"questions"`
	Asked     int            `json:"asked"`
	Budget    int            `json:"budget"`
}

type answersReply struct {
	State          string `json:"state"`
	Accepted       int    `json:"accepted"`
	Asked          int    `json:"asked"`
	Pending        int    `json:"pending"`
	Contradictions int    `json:"contradictions"`
}

type resultReply struct {
	State          string   `json:"state"`
	Ranking        []int    `json:"ranking"`
	Names          []string `json:"names"`
	Resolved       bool     `json:"resolved"`
	Orderings      int      `json:"orderings"`
	Uncertainty    float64  `json:"uncertainty"`
	Asked          int      `json:"asked"`
	Budget         int      `json:"budget"`
	Pending        int      `json:"pending"`
	Contradictions int      `json:"contradictions"`
}

var (
	createFields    = []string{"id", "state", "tuples", "asked", "budget", "pending", "orderings"}
	questionsFields = []string{"state", "questions", "asked", "budget"}
	answersFields   = []string{"state", "accepted", "asked", "pending", "contradictions"}
	resultFields    = []string{"state", "ranking", "names", "resolved", "orderings", "uncertainty", "asked", "budget", "pending", "contradictions"}
)

type createBody struct {
	Tuples    []dataset.DistSpec `json:"tuples"`
	K         int                `json:"k"`
	Budget    int                `json:"budget"`
	Algorithm string             `json:"algorithm"`
	Measure   string             `json:"measure"`
}

type wireAnswer struct {
	I   int  `json:"i"`
	J   int  `json:"j"`
	Yes bool `json:"yes"`
}

type answersBody struct {
	Answers []wireAnswer `json:"answers"`
}

// errShed marks an admission rejection (429 or 503); it counts as a failure.
var errShed = errors.New("shed")

// httpClient talks to one server over keep-alive connections and counts the
// bytes it reads from them, which are the bytes the server wrote to sockets.
type httpClient struct {
	base string
	hc   *http.Client
	read *atomic.Int64
}

func newHTTPClient(base string) *httpClient {
	read := new(atomic.Int64)
	var d net.Dialer
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, read: read}, nil
		},
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}
	return &httpClient{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, read: read}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// call issues one request and decodes a reply of status want into out after
// checking that it carries every field in required. out nil expects no body.
func (c *httpClient) call(method, path string, body any, want int, out any, required []string) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return fmt.Errorf("%s %s: %w (%d)", method, path, errShed, resp.StatusCode)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return decodeChecked(data, out, required)
}

// decodeChecked decodes data into out after checking that the JSON object
// carries every required field.
func decodeChecked(data []byte, out any, required []string) error {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	for _, f := range required {
		if _, ok := fields[f]; !ok {
			return fmt.Errorf("reply lacks field %q: %s", f, data)
		}
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	return nil
}
