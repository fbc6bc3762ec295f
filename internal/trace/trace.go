// Package trace defines the memory-access trace format of the Section IV
// evaluation and codecs for it. A trace record carries the fields the paper
// collected from its full-system simulator: physical address, CPU ID, time
// stamp, and read/write status of every main-memory access (i.e. L3 misses).
//
// Traces can be materialized to files (binary or packed, with a text
// rendering for inspection) or streamed from a generator without touching
// disk; the Source interface abstracts both.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Record is one main-memory access.
type Record struct {
	Cycle uint64 // CPU cycle of issue (3.2 GHz domain)
	Addr  uint64 // 48-bit physical address
	CPU   uint8  // issuing core
	Write bool   // true for store, false for load
}

// Source yields trace records in nondecreasing Cycle order, a caller-sized
// batch at a time. NextBatch writes up to b.Len() records into b's columns
// starting at index 0 and returns how many it wrote. Like io.Reader, it
// may return n > 0 alongside a non-nil error (including io.EOF after the
// last record); the caller must process the n records before handling the
// error. It never returns (0, nil) when b.Len() > 0, so a read loop always
// makes progress.
type Source interface {
	NextBatch(b *Batch) (int, error)
}

// SliceSource serves records from an in-memory slice.
type SliceSource struct {
	recs []Record
	i    int
}

// NewSliceSource wraps recs; the slice is not copied.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// NextBatch implements Source by copying straight out of the backing
// slice (a scatter from the array-of-structs form into the columns).
func (s *SliceSource) NextBatch(b *Batch) (int, error) {
	n := b.Len()
	if rem := len(s.recs) - s.i; rem < n {
		n = rem
	}
	if n == 0 {
		if b.Len() == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	for k, r := range s.recs[s.i : s.i+n] {
		b.Set(k, r)
	}
	s.i += n
	return n, nil
}

// Reset rewinds the source to the first record.
func (s *SliceSource) Reset() { s.i = 0 }

// Each walks src a batch at a time and calls fn on every record, stopping
// at EOF or, when max > 0, after max records; it never reads past max. It
// returns how many records fn accepted. Reaching EOF is not an error; the
// first error from the source or from fn ends the walk and is returned.
func Each(src Source, max uint64, fn func(Record) error) (uint64, error) {
	var b Batch
	var n uint64
	for max == 0 || n < max {
		want := uint64(PackedChunkRecords)
		if max > 0 && max-n < want {
			want = max - n
		}
		b.Resize(int(want))
		k, err := src.NextBatch(&b)
		for i := 0; i < k; i++ {
			if err := fn(b.Record(i)); err != nil {
				return n, err
			}
			n++
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return n, err
		}
		if k == 0 {
			return n, fmt.Errorf("trace: source returned no progress: %w", io.ErrNoProgress)
		}
	}
	return n, nil
}

// Collect drains a source into a slice, up to max records (0 = unlimited).
// A finite max pre-sizes the slice, so bounded collection never pays
// append growth copies.
func Collect(src Source, max int) ([]Record, error) {
	var out []Record
	if max > 0 {
		out = make([]Record, 0, max)
	}
	_, err := Each(src, uint64(max), func(r Record) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

const binaryMagic = "HMTR"

// binary record layout: cycle u64 | addr u64 | cpu u8 | flags u8, little endian.
const binRecSize = 8 + 8 + 1 + 1

// Writer encodes records to the binary trace format.
type Writer struct {
	w   *bufio.Writer
	n   uint64
	err error
}

// NewWriter writes the file header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	var buf [binRecSize]byte
	binary.LittleEndian.PutUint64(buf[0:], r.Cycle)
	binary.LittleEndian.PutUint64(buf[8:], r.Addr)
	buf[16] = r.CPU
	if r.Write {
		buf[17] = 1
	}
	if _, err := w.w.Write(buf[:]); err != nil {
		w.err = fmt.Errorf("trace: writing record %d: %w", w.n, err)
		return w.err
	}
	w.n++
	return nil
}

// Count returns how many records have been written.
func (w *Writer) Count() uint64 { return w.n }

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes the binary trace format and implements Source.
type Reader struct {
	r *bufio.Reader
	n uint64 // records yielded so far
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	return &Reader{r: br}, nil
}

// NextBatch implements Source.
func (r *Reader) NextBatch(b *Batch) (int, error) {
	var buf [binRecSize]byte
	for i := 0; i < b.Len(); i++ {
		if _, err := io.ReadFull(r.r, buf[:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				err = fmt.Errorf("trace: truncated record: %w", err)
			}
			return i, err
		}
		b.Cycle[i] = binary.LittleEndian.Uint64(buf[0:])
		b.Addr[i] = binary.LittleEndian.Uint64(buf[8:])
		b.CPU[i] = buf[16]
		b.Write[i] = buf[17] != 0
		r.n++
	}
	return b.Len(), nil
}

// WriteText renders records in the human-readable text format, one record
// per line: "cycle addr cpu R|W" with addr in hex.
func WriteText(w io.Writer, src Source) (uint64, error) {
	bw := bufio.NewWriter(w)
	var werr error
	n, err := Each(src, 0, func(r Record) error {
		rw := 'R'
		if r.Write {
			rw = 'W'
		}
		_, werr = fmt.Fprintf(bw, "%d 0x%x %d %c\n", r.Cycle, r.Addr, r.CPU, rw)
		return werr
	})
	if werr != nil {
		return n, fmt.Errorf("trace: writing text record %d: %w", n, werr)
	}
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}
