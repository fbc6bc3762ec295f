package dsweep

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestReadFrameTornHeaderAllocatesLittle sends a header that claims the
// largest legal frame and then closes the stream: the read must fail
// without allocating the claimed length.
func TestReadFrameTornHeaderAllocatesLittle(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var env envelope
	err := readFrame(bytes.NewReader(hdr[:]), &env)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("torn frame accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("torn %d-byte frame allocated %d bytes, want under 4 MiB", maxFrame, got)
	}
}

// frameBytes encodes env as one frame.
func frameBytes(f *testing.F, env *envelope) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, env); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder, which reads
// from TCP peers. Rejection must be an error, never a panic; an accepted
// frame must survive a write/read round trip; and a cell it carries must
// validate without panicking and key deterministically, which exercises
// the CellSpec to sim.Config rebuild.
func FuzzReadFrame(f *testing.F) {
	lease := frameBytes(f, &envelope{Type: msgLease, LeaseID: 7, Key: "k", CheckpointEvery: 9,
		Cell:   &CellSpec{Workload: "pgbench", Seed: 3, Design: "live", Interval: 1000, Records: 10, Channels: 2},
		Resume: []byte{1, 2, 3}})
	f.Add(lease)
	f.Add(frameBytes(f, &envelope{Type: msgLease, Cell: &CellSpec{Workload: "FT", Design: "none", PageSize: 4096, Scheme: "alloy", Records: 5}}))
	f.Add(frameBytes(f, &envelope{Type: msgHello, Version: ProtocolVersion, Worker: "w0"}))
	f.Add(frameBytes(f, &envelope{Type: msgComplete, LeaseID: 1, Records: 10, Result: []byte(`{"Records":10}`)}))
	f.Add(lease[:len(lease)-3])         // torn body
	f.Add([]byte{0xff, 0xff, 0xff})     // torn header
	f.Add([]byte{0, 0, 0, 0})           // zero length
	f.Add([]byte{0, 0, 0, 2, '{', '}'}) // missing type tag
	f.Fuzz(func(t *testing.T, data []byte) {
		var env envelope
		if err := readFrame(bytes.NewReader(data), &env); err != nil {
			return
		}
		var first bytes.Buffer
		if err := writeFrame(&first, &env); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		var back envelope
		if err := readFrame(bytes.NewReader(first.Bytes()), &back); err != nil {
			t.Fatalf("re-read of re-encoded frame: %v", err)
		}
		var second bytes.Buffer
		if err := writeFrame(&second, &back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("frame changed in round trip:\n%q\n%q", first.Bytes(), second.Bytes())
		}
		if env.Cell == nil {
			return
		}
		_ = env.Cell.Validate() // a rejected cell is fine; a panic is not
		k1, err1 := env.Cell.Key()
		k2, err2 := env.Cell.Key()
		if k1 != k2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("cell %+v keyed %q (%v) then %q (%v)", *env.Cell, k1, err1, k2, err2)
		}
	})
}
