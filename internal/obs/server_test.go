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

// A client that sends half a request header must have its connection
// closed by the server instead of holding it open.
func TestServerClosesHalfHeaderConnection(t *testing.T) {
	srv := NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the package constant %v", srv.ReadHeaderTimeout, ReadHeaderTimeout)
	}
	// The constant is seconds long; this server's copy is shortened so
	// the test does not wait it out. What is checked is the close, not
	// how long it took.
	srv.ReadHeaderTimeout = 50 * time.Millisecond
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
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// The deadline only keeps a broken server from hanging the test.
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	n, err := io.Copy(io.Discard, conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept the half-header connection open")
	}
	if n != 0 {
		t.Fatalf("server answered a request it never fully received (%d bytes)", n)
	}
}
