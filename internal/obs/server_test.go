package obs

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// A client that sends half a request header, or a header and then only
// part of the body it announced, must have its connection closed by the
// server instead of holding it open.
func TestServerClosesHalfHeaderConnection(t *testing.T) {
	for _, row := range []struct {
		name    string
		timeout func(*http.Server) *time.Duration
		want    time.Duration
		send    string
		// answered: whether the server may answer before it closes —
		// a stalled body reaches the handler, a stalled header does not.
		answered bool
	}{
		{"half header", func(s *http.Server) *time.Duration { return &s.ReadHeaderTimeout }, ReadHeaderTimeout,
			"GET / HTTP/1.1\r\nHost: x\r\n", false},
		{"trickled body", func(s *http.Server) *time.Duration { return &s.ReadTimeout }, ReadTimeout,
			"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n0123456789", true},
	} {
		t.Run(row.name, func(t *testing.T) {
			srv := NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if _, err := io.Copy(io.Discard, r.Body); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				io.WriteString(w, "ok")
			}))
			field := row.timeout(srv)
			if *field != row.want || row.want <= 0 {
				t.Fatalf("timeout = %v, want the package constant %v", *field, row.want)
			}
			// The constant is seconds long; this server's copy is
			// shortened so the test does not wait it out. What is
			// checked is the close, not how long it took.
			*field = 50 * time.Millisecond
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Close()

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, row.send); err != nil {
				t.Fatal(err)
			}
			// The deadline only keeps a broken server from hanging the test.
			conn.SetReadDeadline(time.Now().Add(time.Minute))
			n, err := io.Copy(io.Discard, conn)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("server kept the stalled connection open")
			}
			if n != 0 && !row.answered {
				t.Fatalf("server answered a request it never fully received (%d bytes)", n)
			}
		})
	}
}
