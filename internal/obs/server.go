package obs

import (
	"net/http"
	"time"
)

// ReadHeaderTimeout bounds how long a server waits for a request's
// headers. Without it a client that opens a connection and sends half a
// header holds a goroutine and a socket for as long as it likes.
const ReadHeaderTimeout = 10 * time.Second

// ReadTimeout bounds how long a server waits for a whole request, body
// included, so a client cannot trickle a body forever either. It is
// generous: the largest bodies are a knnserve batch (16 MiB at most) and
// a worker's /done report, which names its run files rather than
// carrying them. A handler still running when it lapses has its request
// context cancelled, so it also bounds the longest query.
const ReadTimeout = 2 * time.Minute

// NewServer returns the http.Server every long-running process of the
// repository (knnserve, the coordinator, shard procs) serves from: h
// behind ReadHeaderTimeout and ReadTimeout.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, ReadTimeout: ReadTimeout}
}
