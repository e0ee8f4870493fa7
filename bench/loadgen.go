package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The stock net/http client costs about as much CPU per request as the
// daemon spends serving it, which on a two-core box halves what the
// daemon gets. This client writes pre-rendered request bytes on a
// keep-alive TCP connection and reads just enough of the response:
// status, Content-Length or chunked framing, and the coverage header.

var (
	hdrContentLength = []byte("content-length:")
	hdrChunked       = []byte("transfer-encoding: chunked")
	hdrCoverage      = []byte("x-supremm-coverage:")
)

type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte // reused between responses
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (h *httpConn) Close() error { return h.c.Close() }

// response is what the workloads check on every reply.
type response struct {
	status   int
	coverage string // X-Supremm-Coverage, "" when absent
	body     []byte // valid until the next roundTrip on the connection
}

// ok reports whether the reply is a full-coverage 200.
func (r response) ok() bool { return r.status == 200 && r.coverage == "1" }

const requestTimeout = 30 * time.Second

// roundTrip sends raw and reads one response.
func (h *httpConn) roundTrip(raw []byte) (response, error) {
	if err := h.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return response{}, err
	}
	if _, err := h.c.Write(raw); err != nil {
		return response{}, err
	}
	return h.readResponse()
}

func (h *httpConn) readResponse() (response, error) {
	var res response
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return res, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return res, fmt.Errorf("bad status line %q", line)
	}
	res.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return res, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return res, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		lower := bytes.ToLower(line)
		switch {
		case bytes.HasPrefix(lower, hdrContentLength):
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLength):])))
			if err != nil {
				return res, fmt.Errorf("bad content-length %q", line)
			}
		case bytes.HasPrefix(lower, hdrChunked):
			chunked = true
		case bytes.HasPrefix(lower, hdrCoverage):
			res.coverage = string(bytes.TrimSpace(line[len(hdrCoverage):]))
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		for {
			line, err = h.br.ReadSlice('\n')
			if err != nil {
				return res, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
			if err != nil {
				return res, fmt.Errorf("bad chunk size %q", line)
			}
			if err := h.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return res, err
			}
			h.body = h.body[:len(h.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err := h.readBody(length); err != nil {
			return res, err
		}
	default:
		return res, errors.New("response has neither content-length nor chunked framing")
	}
	res.body = h.body
	return res, nil
}

func (h *httpConn) readBody(n int) error {
	start := len(h.body)
	if cap(h.body) < start+n {
		h.body = append(make([]byte, 0, 2*(start+n)), h.body...)
	}
	h.body = h.body[:start+n]
	_, err := io.ReadFull(h.br, h.body[start:])
	return err
}

// get is the convenience form for one-off requests outside the timed
// loops; it copies the body.
func (h *httpConn) get(target string) (response, error) {
	return h.send("GET", target)
}

func (h *httpConn) send(method, target string) (response, error) {
	extra := ""
	if method == "POST" {
		extra = "Content-Length: 0\r\n"
	}
	res, err := h.roundTrip([]byte(method + " " + target + " HTTP/1.1\r\nHost: bench\r\n" + extra + "\r\n"))
	res.body = append([]byte(nil), res.body...)
	return res, err
}

// ---- the load loops ----

// loadStats is one timed loop's outcome. latency and late hold one entry
// per request that was answered with a full-coverage 200, in
// nanoseconds; in an open loop latency runs from each request's due
// instant, so the wait a stall imposes on the requests queued behind it
// is counted. A request that failed or was refused has no latency: it
// counts in attempted and failed only, and so misses any latency limit.
type loadStats struct {
	latency   []int64
	late      []int64 // how long after its due instant each request was sent
	attempted int
	failed    int
	elapsed   time.Duration
	firstErr  error
}

func (s *loadStats) merge(o *loadStats) {
	s.latency = append(s.latency, o.latency...)
	s.late = append(s.late, o.late...)
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// loadSpec describes one loop. rate 0 is a closed loop: each connection
// sends its next request when the previous reply is complete. rate > 0
// is an open loop: request k of the run is due at start + k/rate
// whatever the replies do.
type loadSpec struct {
	addr     string
	requests []request
	order    []int32 // indexes into requests; walked cyclically by a shared cursor
	conns    int
	rate     float64
	duration time.Duration
	// total, when > 0, ends the loop after that many requests instead of
	// after duration.
	total int64
}

func runLoad(spec loadSpec) (*loadStats, error) {
	conns := make([]*httpConn, spec.conns)
	for i := range conns {
		c, err := dialHTTP(spec.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[i] = c
	}
	var cursor atomic.Int64
	parts := make([]loadStats, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(spec.duration)
	interval := time.Duration(0)
	if spec.rate > 0 {
		interval = time.Duration(float64(time.Second) / spec.rate)
	}
	for i, c := range conns {
		wg.Add(1)
		go func(c *httpConn, out *loadStats) {
			defer wg.Done()
			for {
				k := cursor.Add(1) - 1
				if spec.total > 0 && k >= spec.total {
					return
				}
				ready := time.Now()
				due := ready
				if interval > 0 {
					due = start.Add(time.Duration(k) * interval)
				}
				if spec.total == 0 && !due.Before(deadline) {
					return
				}
				if wait := due.Sub(ready); wait > 0 {
					time.Sleep(wait)
				}
				req := &spec.requests[spec.order[k%int64(len(spec.order))]]
				sent := time.Now()
				res, err := c.roundTrip(req.raw)
				done := time.Now()
				out.attempted++
				if err != nil || !res.ok() {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("%s: status %d coverage %q: %v", req.target, res.status, res.coverage, err)
					}
					if err != nil {
						return // the connection's framing is lost
					}
					continue
				}
				out.late = append(out.late, int64(sent.Sub(due)))
				out.latency = append(out.latency, int64(done.Sub(due)))
			}
		}(c, &parts[i])
	}
	wg.Wait()
	total := &loadStats{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total, nil
}

// ---- percentiles ----

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the value is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// percentileSupported reports whether n samples support percentile p
// (0 < p < 1).
func percentileSupported(n int, p float64) bool {
	return n-percentileRank(n, p) >= minBeyond
}

// percentileRank is the 1-based nearest rank of percentile p among n
// sorted samples.
func percentileRank(n int, p float64) int {
	return max(1, min(n, int(math.Ceil(float64(n)*p-1e-9))))
}

// percentile returns the p'th percentile of sorted (nearest rank), and
// false when the sample does not support it.
func percentile(sorted []int64, p float64) (int64, bool) {
	if len(sorted) == 0 || !percentileSupported(len(sorted), p) {
		return 0, false
	}
	return sorted[percentileRank(len(sorted), p)-1], true
}

// median of any sample size (the 50th percentile needs no support
// rule); 0 for an empty sample.
func median[T int64 | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedCopy[T int64 | float64](xs []T) []T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
