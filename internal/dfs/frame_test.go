package dfs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// encodeRecords frames records into a buffer.
func encodeRecords(recs []Record) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, rec := range recs {
		WriteFrame(w, rec) // bytes.Buffer writes cannot fail
	}
	w.Flush()
	return buf.Bytes()
}

// decodeRecords reads framed records until EOF — the inverse of
// encodeRecords.
func decodeRecords(r io.Reader) ([]Record, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var out []Record
	for {
		rec, err := ReadFrame(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dfs: framed stream: %w", err)
		}
		out = append(out, Record(rec))
	}
}

// Headers that declare far more payload than follows: the largest length
// a uvarint can spell (a makeslice panic when trusted) and 4 GiB.
var (
	hugeFrameHeader = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	fourGiBHeader   = []byte{0x80, 0x80, 0x80, 0x80, 0x10}
)

// A frame whose declared length runs past the stream is an error — the
// run-file and Disk-store readers both reject it — and
// reading it allocates about what arrived, not what the header claims.
func TestReadFrameDamagedLength(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"max uvarint", append(hugeFrameHeader, "payload"...)},
		{"4 GiB", append(fourGiBHeader, bytes.Repeat([]byte{1}, 100<<10)...)},
		{"header only", []byte{3}},
		{"one byte short", []byte{3, 'a', 'b'}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := ReadFrame(bufio.NewReader(bytes.NewReader(tc.data)))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) || b != nil {
			t.Errorf("%s: got %d bytes, error %v; want io.ErrUnexpectedEOF", tc.name, len(b), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte stream", tc.name, alloc, len(tc.data))
		}
	}
}

// Frames longer than one allocation step arrive whole.
func TestReadFrameLongPayload(t *testing.T) {
	want := make([]byte, 3*frameStep+17)
	for i := range want {
		want[i] = byte(i * 7)
	}
	got, err := decodeRecords(bytes.NewReader(encodeRecords([]Record{want, Record("tail")})))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], want) || string(got[1]) != "tail" {
		t.Fatalf("long frame did not round-trip: %d records", len(got))
	}
}

// ReadFrame never panics on arbitrary bytes, never returns more payload
// than the stream holds, and the frames it does return re-encode to a
// stream that reads back identically.
func FuzzReadFrame(f *testing.F) {
	f.Add(hugeFrameHeader)
	f.Add(fourGiBHeader)
	f.Add(encodeRecords([]Record{Record("key"), Record("a value")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var frames []Record
		total := 0
		for {
			b, err := ReadFrame(r)
			if err != nil {
				break
			}
			frames = append(frames, b)
			total += len(b)
		}
		if total > len(data) {
			t.Fatalf("read %d payload bytes from a %d-byte stream", total, len(data))
		}
		again, err := decodeRecords(bytes.NewReader(encodeRecords(frames)))
		if err != nil {
			t.Fatalf("re-encoded frames do not decode: %v", err)
		}
		if len(again) != len(frames) {
			t.Fatalf("re-encoded %d frames, decoded %d", len(frames), len(again))
		}
		for i := range frames {
			if !bytes.Equal(again[i], frames[i]) {
				t.Fatalf("frame %d changed on re-encoding", i)
			}
		}
	})
}
