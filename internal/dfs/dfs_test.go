package dfs

import (
	"fmt"
	"testing"
	"testing/quick"
)

func recs(ss ...string) []Record {
	out := make([]Record, len(ss))
	for i, s := range ss {
		out[i] = Record(s)
	}
	return out
}

func TestWriteRead(t *testing.T) {
	fs := New(0)
	fs.Write("a", recs("x", "y", "z"))
	got, err := fs.Read("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "x" || string(got[2]) != "z" {
		t.Fatalf("got %v", got)
	}
}

func TestReadMissing(t *testing.T) {
	fs := New(0)
	if _, err := fs.Read("nope"); err == nil {
		t.Fatal("expected error for missing file")
	}
	if _, err := fs.Splits("nope"); err == nil {
		t.Fatal("expected error for missing split source")
	}
}

// TestWriteKeepsCallerRecords pins the ownership contract of Store.Write
// and Append: the in-memory store keeps the records it is handed, bytes
// shared with the caller, and costs a constant number of allocations
// whatever the record count.
func TestWriteKeepsCallerRecords(t *testing.T) {
	fs := New(0)
	w, a := Record("abc"), Record("def")
	fs.Write("w", []Record{w})
	fs.Append("a", []Record{a})
	for name, rec := range map[string]Record{"w": w, "a": a} {
		got, err := fs.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || &got[0][0] != &rec[0] {
			t.Errorf("%s: the store holds a copy of the caller's record", name)
		}
	}

	allocs := func(n int) (write, appendNew float64) {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record(fmt.Sprint(i))
		}
		write = testing.AllocsPerRun(20, func() { fs.Write("w", recs) })
		appendNew = testing.AllocsPerRun(20, func() {
			fs.Remove("a")
			fs.Append("a", recs)
		})
		return write, appendNew
	}
	w1, a1 := allocs(1)
	wn, an := allocs(10000)
	if w1 != wn || a1 != an || wn > 1 || an > 1 {
		t.Errorf("allocations per call: Write %v at 1 record, %v at 10000; Append %v and %v; want a constant ≤ 1",
			w1, wn, a1, an)
	}
}

func TestWriteReplaces(t *testing.T) {
	fs := New(0)
	fs.Write("a", recs("1", "2"))
	fs.Write("a", recs("3"))
	if fs.Size("a") != 1 {
		t.Fatalf("Size = %d, want 1", fs.Size("a"))
	}
}

func TestAppend(t *testing.T) {
	fs := New(0)
	fs.Append("a", recs("1"))
	fs.Append("a", recs("2", "3"))
	got, _ := fs.Read("a")
	if len(got) != 3 || string(got[2]) != "3" {
		t.Fatalf("got %v", got)
	}
}

func TestRemoveIdempotent(t *testing.T) {
	fs := New(0)
	fs.Write("a", recs("1"))
	fs.Remove("a")
	fs.Remove("a")
	if fs.Size("a") != 0 {
		t.Fatal("file not removed")
	}
}

func TestListSorted(t *testing.T) {
	fs := New(0)
	fs.Write("b", nil)
	fs.Write("a", nil)
	fs.Write("c", nil)
	got := fs.List()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("List = %v", got)
	}
}

func TestSplitsChunking(t *testing.T) {
	fs := New(3)
	var rr []Record
	for i := 0; i < 8; i++ {
		rr = append(rr, Record(fmt.Sprintf("r%d", i)))
	}
	fs.Write("a", rr)
	splits, err := fs.Splits("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("got %d splits, want 3", len(splits))
	}
	sizes := []int{3, 3, 2}
	for i, sp := range splits {
		if sp.File != "a" || sp.Index != i || len(sp.Records) != sizes[i] {
			t.Fatalf("split %d = {%s %d %d recs}", i, sp.File, sp.Index, len(sp.Records))
		}
	}
	if string(splits[2].Records[1]) != "r7" {
		t.Fatal("record order lost across splits")
	}
}

func TestSplitsMultipleFiles(t *testing.T) {
	fs := New(2)
	fs.Write("a", recs("1", "2", "3"))
	fs.Write("b", recs("4"))
	splits, err := fs.Splits("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 || splits[2].File != "b" {
		t.Fatalf("splits = %+v", splits)
	}
}

func TestDefaultChunkSize(t *testing.T) {
	for _, tc := range []struct{ chunk, want int }{
		{0, DefaultChunkRecords}, {-5, DefaultChunkRecords}, {7, 7},
	} {
		fs := New(tc.chunk)
		fs.Write("a", make([]Record, DefaultChunkRecords+1))
		splits, err := fs.Splits("a")
		if err != nil {
			t.Fatal(err)
		}
		if splits[0].Count != tc.want {
			t.Errorf("New(%d): first split holds %d records, want %d", tc.chunk, splits[0].Count, tc.want)
		}
	}
}

// Property: splitting never loses, duplicates, or reorders records, for
// any file size and chunk size.
func TestSplitsLosslessQuick(t *testing.T) {
	f := func(n uint16, chunk uint8) bool {
		size := int(n)%500 + 1
		fs := New(int(chunk)%17 + 1)
		in := make([]Record, size)
		for i := range in {
			in[i] = Record(fmt.Sprintf("%d", i))
		}
		fs.Write("f", in)
		splits, err := fs.Splits("f")
		if err != nil {
			return false
		}
		var flat []Record
		for _, sp := range splits {
			flat = append(flat, sp.Records...)
		}
		if len(flat) != size {
			return false
		}
		for i, r := range flat {
			if string(r) != fmt.Sprintf("%d", i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New(4)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			name := fmt.Sprintf("f%d", g%4)
			for i := 0; i < 50; i++ {
				fs.Append(name, recs("x"))
				fs.Size(name)
				fs.List()
				fs.Read(name)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	total := 0
	for _, n := range fs.List() {
		total += fs.Size(n)
	}
	if total != 8*50 {
		t.Fatalf("total records = %d, want 400", total)
	}
}
