package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzPackedTrace exercises the packed columnar codec from both ends.
// The input bytes are first decoded as fixed-width records and driven
// through packed encode -> chunk decode -> []Record equality (including a
// file-format round trip); then the same bytes are fed to ReadPacked as an
// untrusted file, which must reject corruption with an error — never a
// panic — and anything it accepts must survive re-encoding unchanged.
func FuzzPackedTrace(f *testing.F) {
	var good bytes.Buffer
	if _, err := PackRecords([]Record{
		{Cycle: 1, Addr: 0x1000, CPU: 0, Write: false},
		{Cycle: 9, Addr: 0x2040, CPU: 3, Write: true},
		{Cycle: 2, Addr: 1 << 40, CPU: 255, Write: false}, // cycle steps backwards
	}).WriteTo(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:len(good.Bytes())-3]) // truncated payload
	f.Add([]byte("HMPK"))                     // header only
	f.Add([]byte("HMTR\x00\x00"))             // wrong container
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes as records: 18-byte groups, like the binary
		// record framing (cycle u64 | addr u64 | cpu u8 | flags u8).
		recs := make([]Record, 0, len(data)/18)
		for len(data)-len(recs)*18 >= 18 {
			d := data[len(recs)*18:]
			recs = append(recs, Record{
				Cycle: binary.LittleEndian.Uint64(d[0:8]),
				Addr:  binary.LittleEndian.Uint64(d[8:16]),
				CPU:   d[16],
				Write: d[17]&1 != 0,
			})
		}
		p := PackRecords(recs)
		check := func(label string, q *Packed) {
			got, err := Collect(NewPackedSource(q), 0)
			if err != nil {
				t.Fatalf("%s: decode: %v", label, err)
			}
			if len(got) != len(recs) {
				t.Fatalf("%s: decoded %d records, want %d", label, len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("%s: record %d changed: %+v != %+v", label, i, got[i], recs[i])
				}
			}
		}
		check("in-memory", p)
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPacked(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written packed trace failed: %v", err)
		}
		check("file round trip", back)

		// The raw input as an untrusted packed file: errors are fine,
		// panics are not, and accepted input must re-encode stably.
		q, err := ReadPacked(bytes.NewReader(data))
		if err != nil {
			return
		}
		if q.NumRecords() > 1<<22 {
			return // bound fuzz work on giant claimed traces
		}
		first, err := Collect(NewPackedSource(q), 0)
		if err != nil {
			t.Fatalf("accepted packed file failed to decode: %v", err)
		}
		again := PackRecords(first)
		second, err := Collect(NewPackedSource(again), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != len(second) {
			t.Fatalf("re-encode changed record count: %d != %d", len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("re-encode changed record %d: %+v != %+v", i, first[i], second[i])
			}
		}
	})
}

// FuzzReader feeds arbitrary bytes to the binary decoder. Truncated or
// corrupt input must produce errors, never panics; valid frames must
// round-trip through Writer unchanged.
func FuzzReader(f *testing.F) {
	// A well-formed two-record trace as a seed.
	var good bytes.Buffer
	w, err := NewWriter(&good)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Write(Record{Cycle: 1, Addr: 0x1000, CPU: 0, Write: false})
	_ = w.Write(Record{Cycle: 2, Addr: 0x2000, CPU: 3, Write: true})
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte("HMTR"))                     // header only
	f.Add([]byte("HMTRxx"))                   // truncated record
	f.Add([]byte("XXXX"))                     // bad magic
	f.Add([]byte(""))                         // empty
	f.Add(good.Bytes()[:len(good.Bytes())-1]) // last record truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Bound fuzz work on giant inputs: a prefix round-trips too.
		recs, err := Collect(r, 1<<16+1)
		if err != nil {
			return // truncation etc.: error, not panic
		}
		// Fully decoded input: re-encode and compare.
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r2, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-encoded trace failed: %v", err)
		}
		got, err := Collect(r2, 0)
		if err != nil {
			t.Fatalf("re-read of re-encoded trace: %v", err)
		}
		if len(got) != len(recs) {
			t.Fatalf("round trip read %d records, want %d", len(got), len(recs))
		}
		for i, want := range recs {
			if got[i] != want {
				t.Fatalf("record %d changed in round trip: %+v != %+v", i, got[i], want)
			}
		}
	})
}
