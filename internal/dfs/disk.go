package dfs

import (
	"bufio"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Disk is the out-of-core Store: every file's records live in a spill
// directory as one length-prefixed binary file, and only metadata (record
// counts, chunk offsets) stays in memory. Input splits load their records
// on demand, one chunk at a time, so a dataset far larger than RAM
// streams through the MapReduce engine the way HDFS blocks stream through
// Hadoop map tasks.
//
// On-disk format: each record is a uvarint payload length followed by the
// payload bytes. The format carries no ordering of its own — record order
// is file order, exactly as with the in-memory FS.
//
// Disk is safe for concurrent use across distinct file names (the
// pattern of every driver: parallel tasks never write one name). It
// assumes sole ownership of its directory for the duration of the run;
// it does not rediscover files written by a previous process.
//
// Writes are versioned: replacing a file writes a fresh on-disk version
// and leaves the previous one in place until Remove, so input splits
// handed out before the replacement keep loading the records they were
// cut from — the same snapshot semantics the in-memory FS gets for free
// from holding sub-slices of the old record list.
type Disk struct {
	mu    sync.Mutex
	dir   string
	chunk int
	ver   atomic.Int64
	files map[string]*diskFile
}

// diskFile is the in-memory metadata of one on-disk file version.
type diskFile struct {
	path    string
	count   int      // records
	offs    []int64  // byte offset of record i*chunk, one entry per chunk
	end     int64    // byte offset past the last record
	retired []string // paths of replaced versions, deleted on Remove
}

// NewDisk returns a disk-backed store rooted at dir (created if absent).
// chunkRecords ≤ 0 selects DefaultChunkRecords.
func NewDisk(dir string, chunkRecords int) (*Disk, error) {
	if chunkRecords <= 0 {
		chunkRecords = DefaultChunkRecords
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: spill dir: %w", err)
	}
	return &Disk{dir: dir, chunk: chunkRecords, files: make(map[string]*diskFile)}, nil
}

// Dir returns the store's spill directory.
func (d *Disk) Dir() string { return d.dir }

// pathFor maps a DFS file name to a fresh versioned on-disk path. Names
// are percent-escaped so any name the drivers use (including separators)
// maps to a flat, collision-free file in the spill directory; the
// version suffix keeps a replacing Write from invalidating readers of
// the previous version.
func (d *Disk) pathFor(name string) string {
	return filepath.Join(d.dir, fmt.Sprintf("dfs-%s.v%d", url.PathEscape(name), d.ver.Add(1)))
}

// writeRecords appends records to w, tracking chunk offsets in meta.
func writeRecords(w *bufio.Writer, meta *diskFile, chunk int, records []Record) error {
	for _, r := range records {
		if meta.count%chunk == 0 {
			meta.offs = append(meta.offs, meta.end)
		}
		if err := WriteFrame(w, r); err != nil {
			return err
		}
		meta.count++
		meta.end += int64(uvarintLen(uint64(len(r))) + len(r))
	}
	return nil
}

// uvarintLen returns the encoded size of v's uvarint length prefix.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Write stores records under name, replacing any existing file. The new
// contents are written to a temporary file and renamed into place, so a
// failed Write leaves the previous version — bytes and metadata — fully
// intact.
func (d *Disk) Write(name string, records []Record) error {
	meta := &diskFile{path: d.pathFor(name)}
	f, err := os.Create(meta.path + ".tmp")
	if err != nil {
		return fmt.Errorf("dfs: write %q: %w", name, err)
	}
	w := bufio.NewWriter(f)
	if err := writeRecords(w, meta, d.chunk, records); err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(meta.path+".tmp", meta.path)
	}
	if err != nil {
		os.Remove(meta.path + ".tmp")
		return fmt.Errorf("dfs: write %q: %w", name, err)
	}
	d.mu.Lock()
	if old, ok := d.files[name]; ok {
		meta.retired = append(append(meta.retired, old.retired...), old.path)
	}
	d.files[name] = meta
	d.mu.Unlock()
	return nil
}

// Append adds records to an existing or new file.
func (d *Disk) Append(name string, records []Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, ok := d.files[name]
	if !ok {
		meta = &diskFile{path: d.pathFor(name)}
		if f, err := os.Create(meta.path); err != nil {
			return fmt.Errorf("dfs: append %q: %w", name, err)
		} else {
			f.Close()
		}
		d.files[name] = meta
	}
	f, err := os.OpenFile(meta.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("dfs: append %q: %w", name, err)
	}
	// Work on a copy of the metadata so a mid-write failure leaves the
	// recorded state describing the intact prefix of the file.
	cp := *meta
	cp.offs = append([]int64(nil), meta.offs...)
	w := bufio.NewWriter(f)
	if err := writeRecords(w, &cp, d.chunk, records); err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Drop any partially written suffix so the recorded metadata and
		// the bytes on disk keep describing the same intact prefix.
		os.Truncate(meta.path, meta.end)
		return fmt.Errorf("dfs: append %q: %w", name, err)
	}
	d.files[name] = &cp
	return nil
}

// readRange reads count records of the file at path, starting at byte
// offset off; a record that is missing or cut short is an error naming
// its index within the range.
func readRange(path string, off int64, count int) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(f, 64<<10)
	out := make([]Record, 0, count)
	for i := 0; i < count; i++ {
		rec, err := ReadFrame(r)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		out = append(out, Record(rec))
	}
	return out, nil
}

// Read returns all records of the named file in write order. The whole
// file is materialized — callers that want bounded memory should consume
// the file through Splits instead.
func (d *Disk) Read(name string) ([]Record, error) {
	d.mu.Lock()
	meta, ok := d.files[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", name)
	}
	recs, err := readRange(meta.path, 0, meta.count)
	if err != nil {
		return nil, fmt.Errorf("dfs: read %q: %w", name, err)
	}
	return recs, nil
}

// Remove deletes the named file — its current version and any retired
// versions kept alive for outstanding splits. Removing a missing file is
// not an error, matching the idempotent semantics job drivers want
// during cleanup.
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	meta, ok := d.files[name]
	delete(d.files, name)
	d.mu.Unlock()
	if ok {
		os.Remove(meta.path)
		for _, p := range meta.retired {
			os.Remove(p)
		}
	}
}

// List returns the names of all files in lexicographic order.
func (d *Disk) List() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Size returns the number of records in the named file, or 0 if absent.
func (d *Disk) Size(name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if meta, ok := d.files[name]; ok {
		return meta.count
	}
	return 0
}

// Splits chops the named files into lazy input splits of at most the
// chunk size in records each. A split's records are read from disk when
// its map task calls Load, so at most one split per concurrently running
// task is resident.
func (d *Disk) Splits(names ...string) ([]Split, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []Split
	for _, name := range names {
		meta, ok := d.files[name]
		if !ok {
			return nil, fmt.Errorf("dfs: no such file %q", name)
		}
		for i := 0; i < meta.count; i += d.chunk {
			end := i + d.chunk
			if end > meta.count {
				end = meta.count
			}
			out = append(out, Split{File: name, Index: i / d.chunk, Count: end - i,
				Path: meta.path, Offset: meta.offs[i/d.chunk]})
		}
	}
	return out, nil
}
