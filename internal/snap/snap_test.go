package snap

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// sample is a value of every primitive the stream carries.
type sample struct {
	u64   uint64
	i64   int64
	f64   float64
	t, f  bool
	u32   uint32
	u8    uint8
	str   string
	small int
	list  []uint64
}

func (v *sample) Snap(s *Stream) {
	s.U64(&v.u64)
	Int64(s, &v.i64)
	s.F64(&v.f64)
	s.Bool(&v.t)
	s.Bool(&v.f)
	s.U32(&v.u32)
	Uint32(s, &v.small)
	s.U8(&v.u8)
	s.String(&v.str)
}

func buildSample(t *testing.T) []byte {
	t.Helper()
	e := NewEncoder()
	v := sample{u64: 0xdeadbeefcafef00d, i64: -42, f64: 3.5, t: true, u32: 7, small: 300, u8: 9, str: "hello"}
	v.Snap(e.Section("alpha"))
	s := e.Section("beta")
	for i := range s.Len(3, 8) {
		x := uint64(i * 11)
		s.U64(&x)
	}
	e.Section("empty")
	b, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	b := buildSample(t)
	d, err := NewDecoder(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Sections(); len(got) != 3 || got[0] != "alpha" || got[1] != "beta" || got[2] != "empty" {
		t.Fatalf("sections = %v", got)
	}
	s, err := d.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	var v sample
	v.Snap(s)
	want := sample{u64: 0xdeadbeefcafef00d, i64: -42, f64: 3.5, t: true, u32: 7, small: 300, u8: 9, str: "hello"}
	if s.Err() != nil || !reflect.DeepEqual(v, want) {
		t.Fatalf("alpha = %+v, %v; want %+v", v, s.Err(), want)
	}
	if len(s.buf) != 0 {
		t.Fatalf("alpha has %d leftover bytes", len(s.buf))
	}
	if s, err = d.Section("beta"); err != nil {
		t.Fatal(err)
	}
	n := s.Len(0, 8)
	if n != 3 {
		t.Fatalf("Len = %d", n)
	}
	for i := 0; i < n; i++ {
		var v uint64
		if s.U64(&v); v != uint64(i*11) {
			t.Fatalf("beta[%d] = %d", i, v)
		}
	}
	if s, err = d.Section("empty"); err != nil || len(s.buf) != 0 {
		t.Fatalf("empty section: %v, %d bytes", err, len(s.buf))
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
}

func TestReadPastEndLatches(t *testing.T) {
	d, err := NewDecoder(buildSample(t))
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Section("empty")
	if err != nil {
		t.Fatal(err)
	}
	v := uint64(5)
	if s.U64(&v); v != 5 {
		t.Fatalf("read past end overwrote the target with %d", v)
	}
	if !errors.Is(s.Err(), ErrCorrupt) {
		t.Fatalf("Err() = %v, want ErrCorrupt", s.Err())
	}
	// Latched: further reads stay no-ops, error unchanged.
	first := s.Err()
	var u uint32
	if s.U32(&u); u != 0 || s.Err() != first {
		t.Fatal("error did not latch")
	}
}

func TestMissingSection(t *testing.T) {
	d, err := NewDecoder(buildSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Section("nope"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing section: %v", err)
	}
}

func TestVersionSkewRejected(t *testing.T) {
	b := buildSample(t)
	// Bump the version field and re-seal the file CRC so only the version
	// check can object.
	binary.LittleEndian.PutUint16(b[4:6], Version+1)
	reseal(b)
	_, err := NewDecoder(b)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	}
	if ve.Got != Version+1 || ve.Want != Version {
		t.Fatalf("VersionError = %+v", ve)
	}
}

// reseal rewrites the trailing whole-file CRC after a deliberate mutation.
func reseal(b []byte) {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crcIEEE(b[:len(b)-4]))
}

func crcIEEE(b []byte) uint32 {
	// Small local helper to keep the test self-contained.
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, c := range b {
		crc ^= uint32(c)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

func TestCorruptionRejected(t *testing.T) {
	orig := buildSample(t)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"payload bit flip", func(b []byte) []byte { b[12] ^= 0x01; return b }},
		// Resealing the file CRC leaves only the per-section CRC to
		// catch a payload flip (first payload byte of "alpha" is at
		// offset 18: 8-byte header + nameLen + 5-byte name + payLen).
		{"payload flip, file crc resealed", func(b []byte) []byte { b[18] ^= 0x01; reseal(b); return b }},
		{"file crc flip", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		b := append([]byte(nil), orig...)
		if _, err := NewDecoder(tc.mutate(b)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	e := NewEncoder()
	one, two := uint8(1), uint8(2)
	e.Section("x").U8(&one)
	e.Section("x").U8(&two)
	b, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate section: %v", err)
	}
}

// readOne builds a one-section snapshot from write and returns the reading
// stream over that section.
func readOne(t *testing.T, write func(*Stream)) *Stream {
	t.Helper()
	e := NewEncoder()
	write(e.Section("s"))
	b, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Section("s")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCountBoundsAllocation(t *testing.T) {
	hostile := uint32(1 << 30) // a count with no elements behind it
	s := readOne(t, func(s *Stream) { s.U32(&hostile) })
	if n := s.Len(0, 8); n != 0 {
		t.Fatalf("hostile count returned %d", n)
	}
	if !errors.Is(s.Err(), ErrCorrupt) {
		t.Fatalf("Err() = %v", s.Err())
	}

	// Sparse bounds its count by the dense array it fills.
	three := uint32(3)
	s = readOne(t, func(s *Stream) { s.U32(&three) })
	Sparse(s, "entry", make([]uint64, 2), 0, Uint32[int], (*Stream).U64)
	if !errors.Is(s.Err(), ErrCorrupt) {
		t.Fatalf("Sparse over-count: Err() = %v", s.Err())
	}
}

func TestSparseRoundTrip(t *testing.T) {
	src := []int32{-1, 4, -1, -1, 0, 7, -1}
	s := readOne(t, func(s *Stream) { Sparse(s, "entry", src, -1, Int64[int], Uint32[int32]) })
	got := []int32{9, 9, 9, 9, 9, 9, 9}
	Sparse(s, "entry", got, -1, Int64[int], Uint32[int32])
	if s.Err() != nil || !reflect.DeepEqual(got, src) {
		t.Fatalf("Sparse round trip = %v, %v; want %v", got, s.Err(), src)
	}

	// A repeated or out-of-range index is corrupt.
	for _, idx := range [][]uint32{{1, 1}, {0, 5}} {
		s := readOne(t, func(s *Stream) {
			n := uint32(len(idx))
			s.U32(&n)
			for _, i := range idx {
				v := uint64(1)
				s.U32(&i)
				s.U64(&v)
			}
		})
		Sparse(s, "entry", make([]uint64, 4), 0, Uint32[int], (*Stream).U64)
		if !errors.Is(s.Err(), ErrCorrupt) {
			t.Errorf("indices %v: Err() = %v, want ErrCorrupt", idx, s.Err())
		}
	}
}

func TestShapeAndPresence(t *testing.T) {
	s := readOne(t, func(s *Stream) {
		s.Shape(4, "slots")
		s.Present(true, "part")
	})
	if s.Shape(4, "slots"); s.Err() != nil {
		t.Fatal(s.Err())
	}
	if s.Present(false, "part") || !errors.Is(s.Err(), ErrCorrupt) {
		t.Fatalf("presence mismatch: Err() = %v", s.Err())
	}
	s = readOne(t, func(s *Stream) { s.Bools([]bool{true, false}) })
	if s.Bools(make([]bool, 3)); !errors.Is(s.Err(), ErrCorrupt) {
		t.Fatalf("shape mismatch: Err() = %v", s.Err())
	}
}

func TestEncoderErrorLatches(t *testing.T) {
	e := NewEncoder()
	e.Section("") // invalid name
	e.Section("late")
	if _, err := e.Finish(); err == nil {
		t.Fatal("Finish succeeded after misuse")
	}
	e2 := NewEncoder()
	sentinel := errors.New("component failed")
	e2.Section("ok").Fail(sentinel)
	v := uint64(1)
	s := e2.Section("next")
	if s.U64(&v); s.Err() != sentinel {
		t.Fatalf("section after a failure: Err() = %v, want the latched sentinel", s.Err())
	}
	if _, err := e2.Finish(); !errors.Is(err, sentinel) {
		t.Fatalf("Finish = %v, want sentinel", err)
	}
}

func TestBoolRejectsJunkByte(t *testing.T) {
	junk := uint8(2)
	s := readOne(t, func(s *Stream) { s.U8(&junk) })
	var b bool
	if s.Bool(&b); !errors.Is(s.Err(), ErrCorrupt) {
		t.Fatalf("Bool(2): %v", s.Err())
	}
}
