// Package dfs is a minimal stand-in for HDFS with two storage backends.
//
// The paper's pipeline relies on HDFS for exactly one behaviour that
// matters to the algorithms: imported data are split into equal-size
// chunks, and each chunk becomes the input split of one map task (§2.2).
// This package reproduces that behaviour — files are stored as ordered
// record lists and split into fixed-record-count chunks that the MapReduce
// engine consumes as input splits — without pretending to be a real
// filesystem.
//
// Two implementations of the Store interface are provided: FS keeps every
// chunk in RAM (fast, bounded by the machine's memory), and Disk persists
// chunks to a spill directory as length-prefixed record files, so
// datasets larger than memory flow through the engine one input split at
// a time — the out-of-core regime the paper's Hadoop clusters run in.
package dfs

import (
	"fmt"
	"sort"
	"sync"
)

// Record is one opaque record of a file. Files store bytes, not typed
// objects, so that what a map task reads is exactly what a real system
// would deserialize.
type Record []byte

// Store is the filesystem contract the MapReduce engine and the join
// drivers program against: named files of ordered records, chopped into
// fixed-record-count input splits. FS implements it in memory; Disk
// implements it over a spill directory.
type Store interface {
	// Write stores records under name, replacing any existing file. The
	// store takes ownership of records: the caller must not modify the
	// slice or the bytes of any record afterwards.
	Write(name string, records []Record) error
	// Append adds records to an existing or new file, taking ownership
	// of them as Write does.
	Append(name string, records []Record) error
	// Read returns all records of the named file in write order. The
	// slice is the caller's to reorder; the record bytes may be shared
	// with the store and are read-only.
	Read(name string) ([]Record, error)
	// Remove deletes the named file; removing a missing file is a no-op.
	Remove(name string)
	// List returns the names of all files in lexicographic order.
	List() []string
	// Size returns the number of records in the named file, or 0 if absent.
	Size(name string) int
	// Splits chops the named files into input splits of at most the
	// store's chunk size in records each, preserving record order per
	// file.
	Splits(names ...string) ([]Split, error)
}

// FS is an in-memory chunked file store, safe for concurrent use.
type FS struct {
	mu        sync.RWMutex
	chunkSize int
	files     map[string][]Record
}

// DefaultChunkRecords is the default number of records per chunk/split.
const DefaultChunkRecords = 4096

// New returns a filesystem whose files split into chunks of chunkRecords
// records each. chunkRecords ≤ 0 selects DefaultChunkRecords.
func New(chunkRecords int) *FS {
	if chunkRecords <= 0 {
		chunkRecords = DefaultChunkRecords
	}
	return &FS{chunkSize: chunkRecords, files: make(map[string][]Record)}
}

// Write stores records under name, replacing any existing file. The
// file keeps the slice as given (see Store.Write): every writer hands
// over records it has just built, so copying them would only double
// the file's footprint. The error is always nil; it exists so FS
// satisfies Store, whose disk-backed implementation can genuinely fail.
func (fs *FS) Write(name string, records []Record) error {
	fs.mu.Lock()
	fs.files[name] = records
	fs.mu.Unlock()
	return nil
}

// Append adds records to an existing or new file, keeping them as given
// (see Write). The error is always nil.
func (fs *FS) Append(name string, records []Record) error {
	fs.mu.Lock()
	fs.files[name] = append(fs.files[name], records...)
	fs.mu.Unlock()
	return nil
}

// Read returns all records of the named file in write order.
func (fs *FS) Read(name string) ([]Record, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	recs, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", name)
	}
	out := make([]Record, len(recs))
	copy(out, recs)
	return out, nil
}

// Remove deletes the named file. Removing a missing file is not an error,
// matching the idempotent semantics job drivers want during cleanup.
func (fs *FS) Remove(name string) {
	fs.mu.Lock()
	delete(fs.files, name)
	fs.mu.Unlock()
}

// List returns the names of all files in lexicographic order.
func (fs *FS) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Size returns the number of records in the named file, or 0 if absent.
func (fs *FS) Size(name string) int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return len(fs.files[name])
}

// Split is one input split: a contiguous chunk of a file's records that
// feeds exactly one map task. An in-memory split holds its Records; a
// Disk split holds only their location — Count records from byte Offset
// of the file version at Path — so its records enter memory only while
// its map task runs, and any process that sees the file can load them.
// Only the location crosses a process boundary (JSON), never Records.
type Split struct {
	File    string
	Index   int
	Count   int
	Records []Record `json:"-"`

	Path   string
	Offset int64
}

// Load returns the split's records, reading a Disk split from its file
// on every call, so a retried map task starts from clean input. A file
// that no longer holds the records fails the load, naming the DFS file
// and the split.
func (s Split) Load() ([]Record, error) {
	if s.Path == "" {
		return s.Records, nil
	}
	recs, err := readRange(s.Path, s.Offset, s.Count)
	if err != nil {
		return nil, fmt.Errorf("dfs: split %d of %q: %w", s.Index, s.File, err)
	}
	return recs, nil
}

// Splits chops the named files into input splits of at most the chunk
// size in records each, preserving record order within each file. Files are
// processed in the order given, matching how a job lists its inputs.
func (fs *FS) Splits(names ...string) ([]Split, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []Split
	for _, name := range names {
		recs, ok := fs.files[name]
		if !ok {
			return nil, fmt.Errorf("dfs: no such file %q", name)
		}
		for i := 0; i < len(recs); i += fs.chunkSize {
			end := i + fs.chunkSize
			if end > len(recs) {
				end = len(recs)
			}
			out = append(out, Split{File: name, Index: i / fs.chunkSize,
				Count: end - i, Records: recs[i:end]})
		}
	}
	return out, nil
}
