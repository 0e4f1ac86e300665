package obs

import (
	"net/http"
	"time"
)

// ReadHeaderTimeout bounds how long a server waits for a request's
// headers. Without it a client that opens a connection and sends half a
// header holds a goroutine and a socket for as long as it likes.
const ReadHeaderTimeout = 10 * time.Second

// NewServer returns the http.Server every long-running process of the
// repository (knnserve, the coordinator, shard procs) serves from: h
// behind the ReadHeaderTimeout.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}
