package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/serve"
	"knnjoin/internal/shard"
	"knnjoin/internal/vindex"
)

// TestMain lets -shards tests re-exec this test binary as shard
// replicas, mirroring main().
func TestMain(m *testing.M) {
	shard.RunShardIfSpawned()
	os.Exit(m.Run())
}

func writeTestCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pts.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteCSV(f, dataset.Uniform(400, 3, 100, 1)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFlagValidation(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{},                                    // neither -index nor -data
		{"-index", "a.idx", "-data", "b.csv"}, // both
		{"-index", "/nonexistent.idx"},
		{"-data", "/nonexistent.csv"},
		{"-data", "x.csv", "-metric", "cosine"},
		{"-data", "x.csv", "-pivot-strategy", "psychic"},
		{"-index", "a.idx", "-shards", "-1"},  // negative shard count
		{"-index", "a.idx", "-replicas", "0"}, // replicas below 1
	} {
		if err := run(ctx, args, nil); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// Boot the real binary path end-to-end: build from CSV, serve on an
// ephemeral port, answer /healthz and /knn, shut down on cancellation.
func TestServeFromCSVEndToEnd(t *testing.T) {
	csv := writeTestCSV(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-data", csv, "-addr", "127.0.0.1:0", "-pivots", "20"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Objects != 400 {
		t.Fatalf("healthz %+v", h)
	}

	resp, err = http.Post("http://"+addr+"/knn", "application/json",
		strings.NewReader(`{"point":[50,50,50],"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var kr serve.KNNResponse
	if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(kr.Neighbors) != 5 {
		t.Fatalf("knn status %d, %d neighbors", resp.StatusCode, len(kr.Neighbors))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestServeShardedEndToEnd boots -shards mode from a CSV: the router
// spawns shard replicas of this test binary and the endpoints answer
// over the fanned-out index.
func TestServeShardedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard processes")
	}
	csv := writeTestCSV(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-data", csv, "-addr", "127.0.0.1:0", "-pivots", "20",
			"-shards", "2", "-replicas", "2"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Objects != 400 {
		t.Fatalf("healthz %+v", h)
	}

	resp, err = http.Post("http://"+addr+"/knn", "application/json",
		strings.NewReader(`{"point":[50,50,50],"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var kr serve.KNNResponse
	if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(kr.Neighbors) != 5 {
		t.Fatalf("knn status %d, %d neighbors", resp.StatusCode, len(kr.Neighbors))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestServeShardedCorruptIndexFailsFast damages one record of an index
// file and starts -shards 2 on it. Only the replica that owns the
// record's cell decodes it, so the start must notice that replica's
// exit and fail at once — well inside the cluster's 30 s start timeout
// — with the error a single-node load reports: the partition and the
// record. (main exits 1 on any error run returns.)
func TestServeShardedCorruptIndexFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard processes")
	}
	objs := dataset.Uniform(400, 3, 100, 1)
	ix, err := vindex.Build(objs, vindex.Options{NumPivots: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	// A stored record starts with its object's wire form; the source
	// tag follows the coordinates. Tag one object as R instead of S.
	o := objs[len(objs)/2]
	at := bytes.Index(file, codec.EncodeObject(o))
	if at < 0 {
		t.Fatal("object not found in the index file")
	}
	file[at+len(codec.EncodeObject(o))] = byte(codec.FromR)
	_, want := vindex.Load(bytes.NewReader(file))
	if want == nil || !strings.Contains(want.Error(), "partition ") || !strings.Contains(want.Error(), " record ") {
		t.Fatalf("single-node load of the damaged file: %v, want an error naming the partition and the record", want)
	}
	path := filepath.Join(t.TempDir(), "corrupt.idx")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{"-index", path, "-addr", "127.0.0.1:0", "-shards", "2"}, nil)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), want.Error()) || !strings.Contains(err.Error(), "exited before serving") {
			t.Fatalf("run = %v, want a replica's exit naming %q", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a sharded start on a damaged index did not fail within 5 s")
	}
}
