package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
)

func buildIndex(t *testing.T, objs []codec.Object) *vindex.Index {
	t.Helper()
	ix, err := vindex.Build(objs, vindex.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func knnBody(q vector.Point, k int) string {
	b, _ := json.Marshal(KNNRequest{Point: q, K: k})
	return string(b)
}

// wantKNNBody is the sequential ground truth: the bytes the server must
// answer for (q, k).
func wantKNNBody(t *testing.T, ix *vindex.Index, q vector.Point, k int) []byte {
	t.Helper()
	res, st := ix.KNNWithStats(q, k)
	b, err := MarshalKNN(res, st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestKNNEndpointMatchesVindex(t *testing.T) {
	objs := dataset.Uniform(800, 3, 100, 5)
	ix := buildIndex(t, objs)
	s := New(ix, "", Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for trial := 0; trial < 10; trial++ {
		q := dataset.Uniform(1, 3, 100, int64(trial)+50)[0].Point
		code, body := post(t, ts, "/knn", knnBody(q, 7))
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		if want := wantKNNBody(t, ix, q, 7); !bytes.Equal(body, want) {
			t.Fatalf("trial %d: response differs from sequential vindex query:\n got %s\nwant %s",
				trial, body, want)
		}
	}
}

func TestKNNBadInputs(t *testing.T) {
	objs := dataset.Uniform(100, 2, 10, 3)
	s := New(buildIndex(t, objs), "", Config{MaxBatch: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
	}{
		{"malformed json", "/knn", `{"point":`},
		{"empty point", "/knn", `{"point":[],"k":3}`},
		{"dim mismatch", "/knn", `{"point":[1,2,3],"k":3}`},
		{"k zero", "/knn", `{"point":[1,2],"k":0}`},
		{"k negative", "/knn", `{"point":[1,2],"k":-4}`},
		{"non-numeric coordinate", "/knn", `{"point":[1,"x"],"k":3}`},
		{"range malformed json", "/range", `{"point":`},
		{"range empty point", "/range", `{"point":[],"radius":5}`},
		{"range negative radius", "/range", `{"point":[1,2],"radius":-1}`},
		{"range non-numeric radius", "/range", `{"point":[1,2],"radius":"x"}`},
		{"range dim mismatch", "/range", `{"point":[1],"radius":5}`},
		{"batch malformed json", "/knn/batch", `{"queries":`},
		{"empty batch", "/knn/batch", `{"queries":[]}`},
		{"batch member k zero", "/knn/batch", `{"queries":[{"point":[1,2],"k":0}]}`},
		{"batch member k negative", "/knn/batch", `{"queries":[{"point":[1,2],"k":-3}]}`},
		{"batch member empty point", "/knn/batch", `{"queries":[{"point":[],"k":1}]}`},
		{"oversized batch", "/knn/batch",
			`{"queries":[{"point":[1,2],"k":1},{"point":[1,2],"k":1},{"point":[1,2],"k":1},{"point":[1,2],"k":1},{"point":[1,2],"k":1}]}`},
		{"batch bad member", "/knn/batch", `{"queries":[{"point":[1,2],"k":1},{"point":[1,2,9],"k":1}]}`},
	}
	for _, c := range cases {
		code, body := post(t, ts, c.path, c.body)
		if code < 400 || code >= 500 {
			t.Errorf("%s: status %d (%s), want 4xx", c.name, code, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not an ErrorResponse", c.name, body)
		}
	}
	if st := s.Stats(); st.Queries.Errors != int64(len(cases)) {
		t.Fatalf("error counter = %d, want %d", st.Queries.Errors, len(cases))
	}
	// Wrong method is routed to 405 by the mux.
	if code, _ := get(t, ts, "/knn"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /knn status %d, want 405", code)
	}
}

// JSON cannot carry NaN/Inf literals, so the non-finite guard is
// exercised directly.
func TestValidatePointNonFinite(t *testing.T) {
	if err := validatePoint(vector.Point{1, math.NaN()}, 2); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
	if err := validatePoint(vector.Point{math.Inf(1), 0}, 2); err == nil {
		t.Fatal("Inf coordinate accepted")
	}
	if err := validatePoint(vector.Point{1, 2}, 2); err != nil {
		t.Fatalf("finite point rejected: %v", err)
	}
}

// A k above the index size answers every neighbour, on /knn and on
// /knn/batch. A hostile k must not force an O(k) allocation: 2⁴⁰
// candidates would not fit in memory.
func TestKNNKLargerThanN(t *testing.T) {
	objs := dataset.Uniform(15, 2, 10, 3)
	s := New(buildIndex(t, objs), "", Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, k := range []int{100, 2_000_000_000, 1 << 40} {
		code, body := post(t, ts, "/knn", knnBody(vector.Point{5, 5}, k))
		if code != http.StatusOK {
			t.Fatalf("k=%d: status %d: %s", k, code, body)
		}
		var resp KNNResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Neighbors) != 15 {
			t.Fatalf("k=%d returned %d neighbors, want all 15", k, len(resp.Neighbors))
		}

		batch, _ := json.Marshal(BatchRequest{Queries: []KNNRequest{{Point: vector.Point{5, 5}, K: k}, {Point: vector.Point{1, 9}, K: k}}})
		code, body = post(t, ts, "/knn/batch", string(batch))
		if code != http.StatusOK {
			t.Fatalf("batch k=%d: status %d: %s", k, code, body)
		}
		var bresp BatchResponse
		if err := json.Unmarshal(body, &bresp); err != nil {
			t.Fatal(err)
		}
		for i, raw := range bresp.Results {
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Neighbors) != 15 {
				t.Fatalf("batch k=%d query %d returned %d neighbors, want all 15", k, i, len(resp.Neighbors))
			}
		}
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	objs := dataset.Uniform(50, 2, 10, 3)
	s := New(buildIndex(t, objs), "", Config{MaxBodyBytes: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"point":[1,2],"k":3,"pad":"` + strings.Repeat("x", 4096) + `"}`
	for _, path := range []string{"/knn", "/range", "/knn/batch", "/reload"} {
		code, body := post(t, ts, path, big)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body status %d (%s), want 413", path, code, body)
		}
	}
	// In-budget requests still work.
	if code, _ := post(t, ts, "/knn", knnBody(vector.Point{1, 2}, 3)); code != http.StatusOK {
		t.Fatal("small request rejected under the byte budget")
	}
}

func TestCacheHitReturnsSameBytesAsMiss(t *testing.T) {
	objs := dataset.Uniform(500, 2, 100, 9)
	s := New(buildIndex(t, objs), "", Config{CacheSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := vector.Point{42.5, 17.25}
	_, miss := post(t, ts, "/knn", knnBody(q, 5))
	_, hit := post(t, ts, "/knn", knnBody(q, 5))
	if !bytes.Equal(miss, hit) {
		t.Fatalf("cache hit differs from miss:\nmiss %s\nhit  %s", miss, hit)
	}
	st := s.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	// Different k must not share the entry.
	_, other := post(t, ts, "/knn", knnBody(q, 6))
	if bytes.Equal(other, hit) {
		t.Fatal("k=6 served the k=5 cache entry")
	}
}

func TestBatchMatchesIndividualQueries(t *testing.T) {
	objs := dataset.Uniform(600, 2, 100, 11)
	ix := buildIndex(t, objs)
	s := New(ix, "", Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var batch BatchRequest
	for i := 0; i < 20; i++ {
		q := dataset.Uniform(1, 2, 100, int64(i)+200)[0].Point
		batch.Queries = append(batch.Queries, KNNRequest{Point: q, K: i%5 + 1})
	}
	reqBody, _ := json.Marshal(batch)
	code, body := post(t, ts, "/knn/batch", string(reqBody))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(batch.Queries) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(batch.Queries))
	}
	for i, q := range batch.Queries {
		if want := wantKNNBody(t, ix, q.Point, q.K); !bytes.Equal(resp.Results[i], want) {
			t.Fatalf("batch result %d differs from sequential vindex query", i)
		}
	}
}

// A multi-chunk batch on the quantized tier must still answer every
// query byte-identically to a sequential vindex query on the same
// index. Four pivots over 800 8-d points make partitions of ~200 rows,
// a shape the tier policy scans quantized.
func TestBatchKernelMatchesSequential(t *testing.T) {
	objs := dataset.Uniform(800, 8, 100, 17)
	ix, err := vindex.Build(objs, vindex.Options{Seed: 1, NumPivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := New(ix, "", Config{Workers: 4, CacheSize: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var batch BatchRequest
	for i := 0; i < 3*batchChunk+5; i++ { // forces several chunks
		q := dataset.Uniform(1, 8, 100, int64(i)+900)[0].Point
		batch.Queries = append(batch.Queries, KNNRequest{Point: q, K: i%7 + 1})
	}
	reqBody, _ := json.Marshal(batch)
	code, body := post(t, ts, "/knn/batch", string(reqBody))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, q := range batch.Queries {
		if want := wantKNNBody(t, ix, q.Point, q.K); !bytes.Equal(resp.Results[i], want) {
			t.Fatalf("batch result %d differs from sequential vindex query", i)
		}
	}
}

func TestRangeEndpointMatchesVindex(t *testing.T) {
	objs := dataset.Uniform(400, 2, 50, 13)
	ix := buildIndex(t, objs)
	s := New(ix, "", Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := vector.Point{25, 25}
	code, body := post(t, ts, "/range", `{"point":[25,25],"radius":10}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp RangeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, _ := ix.RangeWithStats(q, 10)
	if len(resp.Objects) != len(want) {
		t.Fatalf("%d objects, want %d", len(resp.Objects), len(want))
	}
	for i := range want {
		if resp.Objects[i].ID != want[i].ID {
			t.Fatalf("object %d: ID %d, want %d", i, resp.Objects[i].ID, want[i].ID)
		}
	}
}

func saveIndex(t *testing.T, ix *vindex.Index, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReloadUnderConcurrentLoad swaps snapshots while queries hammer the
// server: every response must be exactly the sequential answer of one of
// the two index generations — never a mix, never an error.
func TestReloadUnderConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	objsA := dataset.Uniform(500, 2, 100, 21)
	objsB := make([]codec.Object, len(objsA))
	for i, o := range objsA {
		p := o.Point.Clone()
		p[0] += 1000 // far-shifted points, distinct IDs
		objsB[i] = codec.Object{ID: o.ID + 1_000_000, Point: p}
	}
	ixA, ixB := buildIndex(t, objsA), buildIndex(t, objsB)
	pathA, pathB := filepath.Join(dir, "a.idx"), filepath.Join(dir, "b.idx")
	saveIndex(t, ixA, pathA)
	saveIndex(t, ixB, pathB)

	// Expected bytes per generation. The loaded index must answer
	// identically to the in-memory one it was saved from.
	const k = 5
	queries := make([]vector.Point, 8)
	wantA := make([][]byte, len(queries))
	wantB := make([][]byte, len(queries))
	for i := range queries {
		queries[i] = dataset.Uniform(1, 2, 100, int64(i)+400)[0].Point
		wantA[i] = wantKNNBody(t, ixA, queries[i], k)
		wantB[i] = wantKNNBody(t, ixB, queries[i], k)
	}

	s := New(ixA, pathA, Config{Workers: 4, CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (g + i) % len(queries)
				resp, err := http.Post(ts.URL+"/knn", "application/json",
					strings.NewReader(knnBody(queries[qi], k)))
				if err != nil {
					errCh <- err.Error()
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Sprintf("status %d during reload: %s", resp.StatusCode, buf.Bytes())
					return
				}
				body := buf.Bytes()
				if !bytes.Equal(body, wantA[qi]) && !bytes.Equal(body, wantB[qi]) {
					errCh <- fmt.Sprintf("query %d: response matches neither generation: %s", qi, body)
					return
				}
			}
		}(g)
	}
	// Alternate generations while the load runs.
	for swap := 0; swap < 10; swap++ {
		path := pathB
		if swap%2 == 1 {
			path = pathA
		}
		code, body := post(t, ts, "/reload", fmt.Sprintf(`{"path":%q}`, path))
		if code != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", swap, code, body)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for msg := range errCh {
		t.Fatal(msg)
	}
	if st := s.Stats(); st.Reloads != 10 {
		t.Fatalf("reloads = %d, want 10", st.Reloads)
	}
}

func TestReloadErrors(t *testing.T) {
	objs := dataset.Uniform(50, 2, 10, 3)
	s := New(buildIndex(t, objs), "", Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Built in-process, no path given: nothing to re-read.
	if code, _ := post(t, ts, "/reload", `{}`); code != http.StatusBadRequest {
		t.Fatalf("pathless reload status %d, want 400", code)
	}
	// Nonexistent file.
	if code, _ := post(t, ts, "/reload", `{"path":"/nonexistent.idx"}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad-path reload status %d, want 422", code)
	}
	// Garbage file.
	bad := filepath.Join(t.TempDir(), "garbage.idx")
	os.WriteFile(bad, []byte("not an index"), 0o644)
	if code, _ := post(t, ts, "/reload", fmt.Sprintf(`{"path":%q}`, bad)); code != http.StatusUnprocessableEntity {
		t.Fatalf("garbage reload status %d, want 422", code)
	}
	// Failed reloads must leave the old snapshot serving.
	if code, _ := post(t, ts, "/knn", knnBody(vector.Point{5, 5}, 3)); code != http.StatusOK {
		t.Fatalf("query after failed reloads: status %d", code)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	objs := dataset.Uniform(300, 2, 100, 31)
	s := New(buildIndex(t, objs), "", Config{CacheSize: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := vector.Point{1, 2}
	post(t, ts, "/knn", knnBody(q, 3))
	post(t, ts, "/knn", knnBody(q, 3)) // cache hit
	post(t, ts, "/range", `{"point":[1,2],"radius":5}`)
	post(t, ts, "/knn/batch", `{"queries":[{"point":[3,4],"k":2},{"point":[5,6],"k":2}]}`)

	code, body := get(t, ts, "/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries.KNN != 2 || st.Queries.Range != 1 || st.Queries.Batch != 1 || st.Queries.BatchQueries != 2 {
		t.Fatalf("query counts %+v", st.Queries)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 3 { // q(k=3) hit; miss for q, and the two batch points
		t.Fatalf("cache %+v, want 1 hit / 3 misses", st.Cache)
	}
	if st.LatencyMs.Count != 5 { // 2 knn + 1 range + 2 batch sub-queries
		t.Fatalf("latency count %d, want 5", st.LatencyMs.Count)
	}
	if st.DistComputations <= 0 {
		t.Fatal("no distance computations recorded")
	}
	if st.Index.Objects != 300 || st.Index.Dim != 2 {
		t.Fatalf("index info %+v", st.Index)
	}

	code, body = get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Objects != 300 {
		t.Fatalf("healthz %+v", h)
	}
}

// TestConcurrentMixedLoad drives every endpoint from many goroutines at
// once (run under -race in CI): correctness of each response plus no
// data races inside the server.
func TestConcurrentMixedLoad(t *testing.T) {
	objs := dataset.Uniform(700, 2, 100, 41)
	ix := buildIndex(t, objs)
	s := New(ix, "", Config{Workers: 4, CacheSize: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	queries := make([]vector.Point, 6)
	want := make([][]byte, len(queries))
	for i := range queries {
		queries[i] = dataset.Uniform(1, 2, 100, int64(i)+700)[0].Point
		want[i] = wantKNNBody(t, ix, queries[i], 4)
	}

	var wg sync.WaitGroup
	errCh := make(chan string, 32)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				qi := (g*7 + i) % len(queries)
				switch i % 3 {
				case 0, 1:
					resp, err := http.Post(ts.URL+"/knn", "application/json",
						strings.NewReader(knnBody(queries[qi], 4)))
					if err != nil {
						errCh <- err.Error()
						return
					}
					var buf bytes.Buffer
					buf.ReadFrom(resp.Body)
					resp.Body.Close()
					if !bytes.Equal(buf.Bytes(), want[qi]) {
						errCh <- "concurrent /knn response diverged"
						return
					}
				case 2:
					resp, err := http.Get(ts.URL + "/stats")
					if err != nil {
						errCh <- err.Error()
						return
					}
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for msg := range errCh {
		t.Fatal(msg)
	}
}

// failingBackend delegates metadata to a real backend but fails every
// query — the sharded router's failure mode (all replicas of a shard
// down) — pinning the handlers' 502 mapping for backend errors.
type failingBackend struct{ Backend }

var errBoom = errors.New("all replicas down")

func (f failingBackend) KNNWithStats(_ context.Context, q vector.Point, k int) ([]nnheap.Candidate, vindex.Stats, error) {
	return nil, vindex.Stats{}, errBoom
}

func (f failingBackend) KNNBatchWithStats(_ context.Context, qs []vector.Point, ks []int) ([][]nnheap.Candidate, []vindex.Stats, error) {
	return nil, nil, errBoom
}

func (f failingBackend) RangeWithStats(_ context.Context, q vector.Point, radius float64) ([]codec.Object, vindex.Stats, error) {
	return nil, vindex.Stats{}, errBoom
}

func TestBackendErrorsAnswer502(t *testing.T) {
	ix := buildIndex(t, dataset.Uniform(100, 2, 10, 3))
	s := NewBackend(failingBackend{indexBackend{ix}}, "", Config{CacheSize: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, c := range []struct{ name, path, body string }{
		{"knn", "/knn", `{"point":[1,2],"k":3}`},
		{"range", "/range", `{"point":[1,2],"radius":5}`},
		{"batch", "/knn/batch", `{"queries":[{"point":[1,2],"k":1}]}`},
	} {
		code, body := post(t, ts, c.path, c.body)
		if code != http.StatusBadGateway {
			t.Errorf("%s: status %d (%s), want 502", c.name, code, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "all replicas down") {
			t.Errorf("%s: error body %q does not surface the backend failure", c.name, body)
		}
	}
}
