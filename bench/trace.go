package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spanRecord is internal/obs.SpanRecord's JSONL form, restated here so
// the harness needs nothing but the standard library: what the harness
// writes, cmd/knntrace opens beside the programs' own span files.
type spanRecord struct {
	TraceID string            `json:"trace"`
	SpanID  string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Proc    string            `json:"proc"`
	StartNs int64             `json:"start_ns"`
	EndNs   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func (s spanRecord) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps the harness's spans in memory under one trace id and
// writes them when the run ends. A nil tracer — the untraced pass —
// records nothing.
type tracer struct {
	id    string
	spans []spanRecord
}

func newTracer() *tracer {
	return &tracer{id: fmt.Sprintf("bench-%d-%x", os.Getpid(), time.Now().UnixNano())}
}

// begin opens a span under parent ("" roots it) and returns its id.
func (t *tracer) begin(name, parent string) string {
	if t == nil {
		return ""
	}
	id := fmt.Sprintf("bench-%d", len(t.spans)+1)
	t.spans = append(t.spans, spanRecord{
		TraceID: t.id, SpanID: id, Parent: parent, Name: name, Proc: "bench",
		StartNs: time.Now().UnixNano(),
	})
	return id
}

// end closes the span; attrs alternate key, value.
func (t *tracer) end(id string, attrs ...string) {
	if t == nil {
		return
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := &t.spans[i]; s.SpanID == id {
			s.EndNs = time.Now().UnixNano()
			for j := 0; j+1 < len(attrs); j += 2 {
				if s.Attrs == nil {
					s.Attrs = map[string]string{}
				}
				s.Attrs[attrs[j]] = attrs[j+1]
			}
			return
		}
	}
}

// adopt takes over spans another process recorded (the probe's), placing
// its roots under parent in this trace.
func (t *tracer) adopt(spans []spanRecord, parent string) {
	for _, s := range spans {
		s.TraceID = t.id
		if s.Parent == "" {
			s.Parent = parent
		}
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("bench-%d.jsonl", os.Getpid())))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if s.EndNs == 0 {
			s.EndNs = time.Now().UnixNano()
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads the span files the programs under test wrote.
func readSpans(dir string) ([]spanRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []spanRecord
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if line == "" {
				continue
			}
			var s spanRecord
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, s)
		}
	}
	return out, nil
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// serveSpanStats reads what a traced knnserve recorded: the server-side
// median of a /knn request, and for the router its scan RPCs and the
// time a request spent outside them.
func serveSpanStats(spans []spanRecord) (requestP50, scanP50, selfP50 float64, n int) {
	var reqs, scans, selfs []float64
	inScans := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name == "scan-rpc" {
			scans = append(scans, usOf(s.dur()))
			inScans[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		if s.Name != "knn" {
			continue
		}
		reqs = append(reqs, usOf(s.dur()))
		if in, ok := inScans[s.SpanID]; ok {
			selfs = append(selfs, usOf(s.dur()-in))
		}
	}
	return median(reqs), median(scans), median(selfs), len(spans)
}

// workerSpanStats reads what a traced `knnjoin -workers N` recorded:
// seconds inside task attempts, and the share of the workers' time in
// the jobs' walls that no task filled.
func workerSpanStats(spans []spanRecord, workers int) (taskSeconds, idleFrac float64) {
	var jobs float64
	for _, s := range spans {
		switch {
		case s.Name == "task":
			taskSeconds += s.dur().Seconds()
		case strings.HasPrefix(s.Name, "job:"):
			jobs += s.dur().Seconds()
		}
	}
	if jobs > 0 {
		idleFrac = 1 - taskSeconds/(float64(workers)*jobs)
	}
	return taskSeconds, idleFrac
}

// promCounter reads one un-labelled sample of a Prometheus text page.
func promCounter(page []byte, name string) float64 {
	for _, line := range strings.Split(string(page), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}
