package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"time"
)

// conn is the benchmark's one caller: a single keep-alive HTTP/1.1
// connection driven by a single goroutine. The caller shares one CPU with
// the server (affinity.go), so what it spends on a request is part of what
// it measures. net/http's Client hands every request through two more
// goroutines, which on that CPU cost 32 µs a request — p50 0.069 ms
// against 0.037 ms on the hot workload, 0.205 against 0.176 on
// osm2d_mem, spreads alike (README.md, "The caller"). So the loop writes
// pre-rendered request bytes itself and lets net/http parse the reply,
// at 0.044 ms.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	host string
	body bytes.Buffer // the last reply's body; valid until the next call
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10), host: addr}, nil
}

func (c *conn) close() { c.c.Close() }

// request renders one request's bytes; the timed loop renders its pool
// ahead of time.
func request(method, path, host string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, host)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	return c.roundTrip(request(method, path, c.host, body))
}

// roundTrip sends pre-rendered request bytes and reads one reply.
func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	c.c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.body.Bytes(), err
}

// get fetches a path on a fresh connection — for /healthz, /stats and
// /metrics, outside any timed loop.
func get(addr, path string) (int, []byte, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	status, body, err := c.do("GET", path, nil)
	return status, append([]byte(nil), body...), err
}
