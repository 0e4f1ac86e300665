package dfs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newDiskT(t *testing.T, chunk int) *Disk {
	t.Helper()
	d, err := NewDisk(t.TempDir(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func recsOf(ss ...string) []Record {
	out := make([]Record, len(ss))
	for i, s := range ss {
		out[i] = Record(s)
	}
	return out
}

// The Disk store must behave exactly like the in-memory FS for every
// Store operation: same contents, sizes, byte counts, listings and split
// shapes.
func TestDiskMatchesFSSemantics(t *testing.T) {
	disk := newDiskT(t, 3)
	mem := New(3)

	var stores = []Store{disk, mem}
	for _, st := range stores {
		if err := st.Write("a", recsOf("one", "two", "three", "four")); err != nil {
			t.Fatal(err)
		}
		if err := st.Append("a", recsOf("five", "six", "seven")); err != nil {
			t.Fatal(err)
		}
		if err := st.Write("b", nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a", "b"} {
		want, err := mem.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := disk.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: disk has %d records, fs has %d", name, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%q record %d: disk %q, fs %q", name, i, got[i], want[i])
			}
		}
		if disk.Size(name) != mem.Size(name) {
			t.Fatalf("%q: sizes disagree: disk %d fs %d", name, disk.Size(name), mem.Size(name))
		}
	}
	if fmt.Sprint(disk.List()) != fmt.Sprint(mem.List()) {
		t.Fatalf("listings disagree: disk %v fs %v", disk.List(), mem.List())
	}

	dsp, err := disk.Splits("a")
	if err != nil {
		t.Fatal(err)
	}
	msp, err := mem.Splits("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(dsp) != len(msp) {
		t.Fatalf("split counts disagree: disk %d fs %d", len(dsp), len(msp))
	}
	for i := range dsp {
		if dsp[i].Count != msp[i].Count || dsp[i].Index != msp[i].Index {
			t.Fatalf("split %d shape disagrees: disk %+v fs %+v", i, dsp[i], msp[i])
		}
		got, err := dsp[i].Load()
		if err != nil {
			t.Fatal(err)
		}
		want, err := msp[i].Load()
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("split %d record %d: disk %q fs %q", i, j, got[j], want[j])
			}
		}
	}
}

// Lazy splits must not hold records: only Load touches the disk, and a
// second Load after an external truncation fails rather than fabricating
// data — the property the engine's retry path depends on.
func TestDiskSplitsAreLazy(t *testing.T) {
	disk := newDiskT(t, 2)
	if err := disk.Write("f", recsOf("aa", "bb", "cc", "dd", "ee")); err != nil {
		t.Fatal(err)
	}
	sp, err := disk.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != 3 {
		t.Fatalf("got %d splits, want 3", len(sp))
	}
	for _, s := range sp {
		if s.Records != nil {
			t.Fatalf("lazy split %d materialized records eagerly", s.Index)
		}
	}
	recs, err := sp[2].Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "ee" {
		t.Fatalf("split 2 = %q, want [ee]", recs)
	}

	// Truncate the backing file: loading must now fail loudly.
	paths, err := filepath.Glob(filepath.Join(disk.Dir(), "dfs-f.v*"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("backing files = %v, %v", paths, err)
	}
	if err := os.Truncate(paths[0], 3); err != nil {
		t.Fatal(err)
	}
	if _, err := sp[1].Load(); err == nil || !strings.Contains(err.Error(), `split 1 of "f"`) {
		t.Fatalf("Load of a truncated file: %v, want an error naming split 1 of \"f\"", err)
	}
}

// A Write replacing a file must not disturb splits handed out earlier:
// they keep loading the records they were cut from, matching the
// in-memory FS's snapshot semantics; Remove then clears every version
// from disk.
func TestDiskWriteKeepsOutstandingSplitSnapshots(t *testing.T) {
	disk := newDiskT(t, 2)
	if err := disk.Write("f", recsOf("old1", "old2", "old3")); err != nil {
		t.Fatal(err)
	}
	sp, err := disk.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Write("f", recsOf("new1")); err != nil {
		t.Fatal(err)
	}
	recs, err := sp[1].Load()
	if err != nil {
		t.Fatalf("outstanding split after replace: %v", err)
	}
	if len(recs) != 1 || string(recs[0]) != "old3" {
		t.Fatalf("outstanding split = %q, want the pre-replace snapshot [old3]", recs)
	}
	now, err := disk.Read("f")
	if err != nil || len(now) != 1 || string(now[0]) != "new1" {
		t.Fatalf("current contents = %q, %v", now, err)
	}

	disk.Remove("f")
	entries, err := os.ReadDir(disk.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("Remove left versions behind: %v", entries)
	}
}

// Write must replace, Remove must be idempotent, and names with
// separator characters must not escape the spill directory.
func TestDiskReplaceRemoveAndNameEscaping(t *testing.T) {
	disk := newDiskT(t, 0)
	if err := disk.Write("x", recsOf("old")); err != nil {
		t.Fatal(err)
	}
	if err := disk.Write("x", recsOf("new", "newer")); err != nil {
		t.Fatal(err)
	}
	if got := disk.Size("x"); got != 2 {
		t.Fatalf("size after replace = %d, want 2", got)
	}
	disk.Remove("x")
	disk.Remove("x") // idempotent
	if _, err := disk.Read("x"); err == nil {
		t.Fatal("read of removed file succeeded")
	}

	name := "dir/part-0001"
	if err := disk.Write(name, recsOf("v")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(disk.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].IsDir() {
		t.Fatalf("slash-bearing name did not map to one flat file: %v", entries)
	}
	recs, err := disk.Read(name)
	if err != nil || len(recs) != 1 || string(recs[0]) != "v" {
		t.Fatalf("read %q = %q, %v", name, recs, err)
	}
}
