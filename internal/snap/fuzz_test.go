package snap

import (
	"errors"
	"testing"
)

// FuzzSnapshotRestore hammers the decoder with arbitrary bytes: any input
// must either decode cleanly or be rejected with ErrCorrupt / *VersionError
// — never panic, never hang, never accept structurally damaged framing.
// Valid inputs are additionally re-walked section by section to exercise
// the stream readers.
func FuzzSnapshotRestore(f *testing.F) {
	// Seed corpus: a well-formed snapshot plus near-miss mutants.
	good := func() []byte {
		e := NewEncoder()
		m := e.Section("meta")
		v, cfg := uint64(0x1234), "cfg"
		m.U64(&v)
		m.String(&cfg)
		s := e.Section("state")
		for i := range s.Len(4, 9) {
			x, odd := uint64(i), i%2 == 0
			s.U64(&x)
			s.Bool(&odd)
		}
		b, err := e.Finish()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("HMSN"))
	trunc := append([]byte(nil), good[:len(good)-3]...)
	f.Add(trunc)
	flipped := append([]byte(nil), good...)
	flipped[5] ^= 0x01 // version byte
	f.Add(flipped)
	bitrot := append([]byte(nil), good...)
	bitrot[len(bitrot)/2] ^= 0x40
	f.Add(bitrot)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(data)
		if err != nil {
			var ve *VersionError
			if !errors.Is(err, ErrCorrupt) && !errors.As(err, &ve) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Structurally valid: drain every section through the typed
		// readers until the latched end-of-payload error; latched errors
		// are fine, panics are not. Every read consumes at least one byte
		// or latches, so the drain terminates.
		for _, name := range d.Sections() {
			s, err := d.Section(name)
			if err != nil {
				t.Fatal(err)
			}
			var (
				u  uint64
				b  uint8
				ok bool
				st string
			)
			for s.Err() == nil {
				switch len(s.buf) % 5 {
				case 0:
					s.U64(&u)
				case 1:
					s.U8(&b)
				case 2:
					s.String(&st)
				case 3:
					s.Bool(&ok)
				case 4:
					s.Len(0, 1)
				}
			}
			if err := s.Err(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped read error: %v", err)
			}
		}
	})
}
