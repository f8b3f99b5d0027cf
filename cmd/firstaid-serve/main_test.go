package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serveTest starts newHTTPServer on a loopback port with a trivial handler
// and returns its address.
func serveTest(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// waitClosed reads from c until the server closes it; it fails the test
// if the connection is still open at deadline.
func waitClosed(t *testing.T, c net.Conn, deadline time.Time) {
	t.Helper()
	c.SetReadDeadline(deadline)
	if _, err := io.Copy(io.Discard, c); err != nil {
		t.Fatalf("connection still open at the deadline: %v", err)
	}
}

// TestServerDropsSilentClients: a client that connects and sends no
// request headers, or stops part-way through them, is disconnected once
// the header timeout passes instead of holding its connection forever.
func TestServerDropsSilentClients(t *testing.T) {
	addr := serveTest(t)
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	partial, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	if _, err := io.WriteString(partial, "POST /events HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	for name, c := range map[string]net.Conn{"silent": silent, "partial headers": partial} {
		waitClosed(t, c, start.Add(readHeaderTimeout+5*time.Second))
		if d := time.Since(start); d < readHeaderTimeout/2 {
			t.Errorf("%s client dropped after %v, before the %v header timeout", name, d, readHeaderTimeout)
		}
	}
}

// TestServerKeepsIdleKeepAliveConnections: a closed-loop client that
// pauses between requests keeps its connection, so the timeouts never cost
// a well-behaved client a reconnect.
func TestServerKeepsIdleKeepAliveConnections(t *testing.T) {
	if idleTimeout <= readHeaderTimeout || readTimeout < readHeaderTimeout {
		t.Fatalf("timeouts out of order: header %v, read %v, idle %v", readHeaderTimeout, readTimeout, idleTimeout)
	}
	c, err := net.Dial("tcp", serveTest(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(time.Second)
		}
		if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d on the kept-alive connection: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
			t.Fatalf("request %d: %s %q", i, resp.Status, body)
		}
	}
}
