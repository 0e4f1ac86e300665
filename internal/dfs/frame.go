package dfs

import (
	"bufio"
	"encoding/binary"
	"io"
	"slices"
)

// WriteFrame appends one length-prefixed byte string to w: a uvarint
// payload length followed by the payload. It is the single framing
// primitive of every on-disk file this repository writes — the Disk
// store's record files and the MapReduce engine's shuffle run files —
// so a format change (say, adding checksums) lands in exactly one
// encode/decode pair.
func WriteFrame(w *bufio.Writer, b []byte) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(b)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// frameStep is the most ReadFrame allocates ahead of the bytes that
// fill it. A frame up to this size is read into one allocation of its
// declared length; a longer one grows by at most this much per read, so
// a damaged length header costs at most one step beyond the bytes that
// actually arrive, instead of a huge or impossible allocation.
const frameStep = 64 << 10

// ReadFrame reads one WriteFrame-encoded byte string from r. A frame cut
// short mid-payload, or whose declared length runs past the end of the
// stream, surfaces as io.ErrUnexpectedEOF, never as a silently
// shortened payload or a clean io.EOF; only a stream that ends before a
// frame's first byte returns io.EOF.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, min(n, frameStep))
	for uint64(len(b)) < n {
		step := int(min(n-uint64(len(b)), frameStep))
		b = slices.Grow(b, step)
		got, err := io.ReadFull(r, b[len(b):len(b)+step])
		b = b[:len(b)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return b, nil
}
