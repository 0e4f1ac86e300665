package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/serve"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
)

// saveIndex builds an index over objs and writes it to dir/name,
// returning the path and the in-memory index (the single-node
// reference).
func saveIndex(t *testing.T, objs []codec.Object, dir, name string) (string, *vindex.Index) {
	t.Helper()
	ix := buildIndex(t, objs)
	path := filepath.Join(dir, name)
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
	return path, ix
}

// twin is a sharded server and its single-node reference, serving the
// same index file through the identical serve.Server HTTP layer.
type twin struct {
	cluster *Cluster
	router  *Router
	sharded *httptest.Server
	single  *httptest.Server
}

func startTwin(t *testing.T, idxPath string, ccfg ClusterConfig, rcfg RouterConfig) *twin {
	t.Helper()
	ccfg.IndexPath = idxPath
	cluster, err := StartCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(cluster, rcfg)
	// Caching off on both sides so every request exercises the backend.
	shardedSrv := serve.NewBackend(router, idxPath, serve.Config{CacheSize: -1, Loader: router.Loader})
	ix, err := vindex.LoadFile(idxPath)
	if err != nil {
		cluster.Close()
		t.Fatal(err)
	}
	singleSrv := serve.New(ix, idxPath, serve.Config{CacheSize: -1})
	tw := &twin{
		cluster: cluster,
		router:  router,
		sharded: httptest.NewServer(shardedSrv.Handler()),
		single:  httptest.NewServer(singleSrv.Handler()),
	}
	t.Cleanup(func() {
		tw.sharded.Close()
		tw.single.Close()
		tw.router.Close()
		tw.cluster.Close()
	})
	return tw
}

func postBoth(t *testing.T, tw *twin, path, body string) (shardedCode, singleCode int, shardedBody, singleBody []byte) {
	t.Helper()
	shardedCode, shardedBody = postRaw(t, tw.sharded.URL+path, body)
	singleCode, singleBody = postRaw(t, tw.single.URL+path, body)
	return
}

func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// checkIdentical asserts the sharded and single-node responses agree
// byte for byte (status included).
func checkIdentical(t *testing.T, tw *twin, path, body, label string) {
	t.Helper()
	sc, nc, sb, nb := postBoth(t, tw, path, body)
	if sc != nc {
		t.Fatalf("%s: status sharded=%d single=%d (%s vs %s)", label, sc, nc, sb, nb)
	}
	if !bytes.Equal(sb, nb) {
		t.Fatalf("%s: responses differ:\nsharded: %s\nsingle:  %s", label, sb, nb)
	}
}

func knnBody(t *testing.T, q vector.Point, k int) string {
	t.Helper()
	b, err := json.Marshal(serve.KNNRequest{Point: q, K: k})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func rangeBody(t *testing.T, q vector.Point, radius float64) string {
	t.Helper()
	b, err := json.Marshal(serve.RangeRequest{Point: q, Radius: radius})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func batchBody(t *testing.T, qs []vector.Point, k int) string {
	t.Helper()
	req := serve.BatchRequest{}
	for _, q := range qs {
		req.Queries = append(req.Queries, serve.KNNRequest{Point: q, K: k})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterByteIdentity is the golden test: every endpoint of the
// sharded server answers the exact bytes of the single-node server,
// across shard counts, including after a /reload.
func TestClusterByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard processes")
	}
	dir := t.TempDir()
	pathA, _ := saveIndex(t, dataset.Gaussian(900, 3, 6, 0.08, 100, 21), dir, "a.idx")
	pathB, _ := saveIndex(t, dataset.Gaussian(700, 3, 4, 0.1, 80, 22), dir, "b.idx")

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tw := startTwin(t, pathA, ClusterConfig{Shards: shards}, RouterConfig{})

			queries := func(tag string) {
				for trial := 0; trial < 8; trial++ {
					q := dataset.Gaussian(1, 3, 6, 0.2, 100, int64(trial)+40)[0].Point
					checkIdentical(t, tw, "/knn", knnBody(t, q, 1+trial%9), fmt.Sprintf("%s knn %d", tag, trial))
					checkIdentical(t, tw, "/range", rangeBody(t, q, 3+float64(trial)*2), fmt.Sprintf("%s range %d", tag, trial))
				}
				var qs []vector.Point
				for trial := 0; trial < 6; trial++ {
					qs = append(qs, dataset.Gaussian(1, 3, 6, 0.2, 100, int64(trial)+70)[0].Point)
				}
				checkIdentical(t, tw, "/knn/batch", batchBody(t, qs, 5), tag+" batch")
			}

			queries("genA")

			// Reload both sides onto index B; responses must track it and
			// stay identical.
			reload := fmt.Sprintf(`{"path":%q}`, pathB)
			checkIdentical(t, tw, "/reload", reload, "reload")
			queries("genB")

			if st := tw.router.Stats(); st.Gen != 2 {
				t.Fatalf("router generation after reload: got %d want 2", st.Gen)
			}
		})
	}
}

// TestClusterReloadRejectsDamagedCell reloads a file with one damaged
// record, twice in a row. The router reads only the file's metadata,
// so the damage is met by the replicas that own the record's cell: the
// reload fails naming the partition and the record, and the router
// keeps routing the old generation, byte-identical to the single-node
// server that never reloaded. The record sits in a cell of the last
// shard, so every other shard has taken each failed generation before
// the failure; they must still hold the router's. A sound file reloads
// afterwards as usual.
func TestClusterReloadRejectsDamagedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard processes")
	}
	const shards = 2
	dir := t.TempDir()
	pathA, _ := saveIndex(t, dataset.Gaussian(900, 3, 6, 0.08, 100, 21), dir, "a.idx")
	objsB := dataset.Gaussian(700, 3, 4, 0.1, 80, 22)
	pathB, ixB := saveIndex(t, objsB, dir, "b.idx")
	owner, _ := AssignCells(ixB, shards)
	victim := -1
	for i, o := range objsB {
		if part, _ := ixB.AssignQuery(o.Point, nil); owner[part] == shards-1 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no object in a cell of the last shard")
	}
	file, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	rec := codec.EncodeObject(objsB[victim])
	at := bytes.Index(file, rec)
	if at < 0 {
		t.Fatal("object not found in the index file")
	}
	file[at+len(rec)] = byte(codec.FromR) // its source tag
	damaged := filepath.Join(dir, "damaged.idx")
	if err := os.WriteFile(damaged, file, 0o644); err != nil {
		t.Fatal(err)
	}

	tw := startTwin(t, pathA, ClusterConfig{Shards: shards}, RouterConfig{})
	for attempt := 1; attempt <= 2; attempt++ {
		code, body := postRaw(t, tw.sharded.URL+"/reload", fmt.Sprintf(`{"path":%q}`, damaged))
		if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), fmt.Sprintf("shard %d ", shards-1)) ||
			!strings.Contains(string(body), "partition ") || !strings.Contains(string(body), " record ") {
			t.Fatalf("reload %d of a damaged file: %d %s, want 422 from shard %d naming the partition and the record", attempt, code, body, shards-1)
		}
		if st := tw.router.Stats(); st.Gen != 1 {
			t.Fatalf("router generation after failed reload %d: %d, want 1", attempt, st.Gen)
		}
		for trial := 0; trial < 6; trial++ {
			q := dataset.Gaussian(1, 3, 6, 0.2, 100, int64(trial)+40)[0].Point
			checkIdentical(t, tw, "/knn", knnBody(t, q, 5), fmt.Sprintf("after failed reload %d, knn %d", attempt, trial))
			checkIdentical(t, tw, "/range", rangeBody(t, q, 4), fmt.Sprintf("after failed reload %d, range %d", attempt, trial))
		}
	}
	checkIdentical(t, tw, "/reload", fmt.Sprintf(`{"path":%q}`, pathB), "sound reload")
	for trial := 0; trial < 6; trial++ {
		q := dataset.Gaussian(1, 3, 4, 0.2, 80, int64(trial)+40)[0].Point
		checkIdentical(t, tw, "/knn", knnBody(t, q, 5), fmt.Sprintf("after sound reload, knn %d", trial))
	}
}

// TestClusterFailover is the deterministic failover matrix: kill or
// freeze replicas mid-query-stream and pin every response to the
// healthy single-node bytes.
func TestClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard processes")
	}
	dir := t.TempDir()
	path, _ := saveIndex(t, dataset.Gaussian(800, 3, 5, 0.08, 100, 31), dir, "f.idx")

	cases := []struct {
		name string
		plan FaultPlan
		rcfg RouterConfig
	}{
		{
			name: "kill one replica per shard",
			plan: FaultPlan{Events: []FaultEvent{
				{Shard: 0, Replica: 0, AfterScans: 2, Action: FaultKill},
				{Shard: 1, Replica: 0, AfterScans: 3, Action: FaultKill},
			}},
			rcfg: RouterConfig{},
		},
		{
			name: "freeze preferred replica",
			plan: FaultPlan{Events: []FaultEvent{
				{Shard: -1, Replica: 0, AfterScans: 2, Action: FaultFreeze},
			}},
			// Short timeout so the frozen replica is detected quickly; the
			// prober demotes it between queries.
			rcfg: RouterConfig{Timeout: 750 * time.Millisecond, ProbeInterval: 50 * time.Millisecond},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan
			tw := startTwin(t, path, ClusterConfig{Shards: 2, Replicas: 2, Faults: &plan}, tc.rcfg)

			for trial := 0; trial < 12; trial++ {
				q := dataset.Gaussian(1, 3, 5, 0.3, 100, int64(trial)+200)[0].Point
				checkIdentical(t, tw, "/knn", knnBody(t, q, 6), fmt.Sprintf("knn %d", trial))
			}
			st := tw.router.Stats()
			if st.Failovers == 0 {
				t.Fatal("fault plan fired no failovers — the faults never triggered")
			}
			t.Logf("failovers: %d, preferred: %v", st.Failovers, st.Preferred)
		})
	}
}

// TestConcurrentRoutingWithFailover drives the router from many
// goroutines while replicas die, under -race in CI: results must stay
// exactly equal to the single-node reference throughout replica
// promotion.
func TestConcurrentRoutingWithFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard processes")
	}
	dir := t.TempDir()
	path, ref := saveIndex(t, dataset.Gaussian(600, 3, 4, 0.1, 100, 41), dir, "c.idx")

	plan := &FaultPlan{Events: []FaultEvent{
		{Shard: -1, Replica: 0, AfterScans: 5, Action: FaultKill},
	}}
	cluster, err := StartCluster(ClusterConfig{IndexPath: path, Shards: 2, Replicas: 2, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	router := NewRouter(cluster, RouterConfig{ProbeInterval: 50 * time.Millisecond})
	defer router.Close()

	const workers, perWorker = 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := dataset.Gaussian(1, 3, 4, 0.3, 100, int64(w*100+i))[0].Point
				got, gotSt, err := router.KNNWithStats(context.Background(), q, 5)
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				want, wantSt := ref.KNNWithStats(q, 5)
				if gotSt != wantSt {
					errs <- fmt.Errorf("worker %d query %d: stats %+v != %+v", w, i, gotSt, wantSt)
					return
				}
				for x := range want {
					if got[x].ID != want[x].ID || math.Float64bits(got[x].Dist) != math.Float64bits(want[x].Dist) {
						errs <- fmt.Errorf("worker %d query %d: neighbor %d differs", w, i, x)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := router.Stats(); st.Failovers == 0 {
		t.Error("expected at least one failover from the kill plan")
	}
}
