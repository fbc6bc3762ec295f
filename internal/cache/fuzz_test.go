package cache

import "testing"

// FuzzSetCodec pins the packed tag/valid/dirty slot codec every cache
// model builds sets from: Pack/Unpack must round-trip every 48-bit tag
// and flag combination, and two packed words may only compare equal
// (ignoring the dirty bit, as the set-probe loop does) when they encode
// the same tag and validity — no aliasing between tags, and never between
// a valid word and an empty slot.
func FuzzSetCodec(f *testing.F) {
	f.Add(uint64(0), false, false, uint64(0), false, false)
	f.Add(uint64(1), true, true, uint64(2), false, true)
	f.Add(uint64(1)<<47, true, true, uint64(1)<<47-1, true, true)
	f.Add(uint64(0xdeadbeef), false, true, uint64(0xdeadbeef), true, true)
	f.Add(uint64(1)<<48-1, true, true, uint64(0), false, true)
	f.Fuzz(func(t *testing.T, tagA uint64, dirtyA, validA bool, tagB uint64, dirtyB, validB bool) {
		const tagMask = uint64(1)<<48 - 1
		tagA &= tagMask
		tagB &= tagMask

		wa := PackSlot(tagA, dirtyA, validA)
		ta, da, va := UnpackSlot(wa)
		if ta != tagA || da != dirtyA || va != validA {
			t.Fatalf("round-trip: pack(%d,%v,%v) -> unpack = (%d,%v,%v)", tagA, dirtyA, validA, ta, da, va)
		}

		wb := PackSlot(tagB, dirtyB, validB)
		// The probe loop matches on w &^ dirty: equality there must imply
		// identical (tag, valid).
		if wa&^uint64(slotDirty) == wb&^uint64(slotDirty) {
			if tagA != tagB || validA != validB {
				t.Fatalf("alias: (%d,%v) and (%d,%v) pack to the same probe key %#x",
					tagA, validA, tagB, validB, wa&^uint64(slotDirty))
			}
		} else if tagA == tagB && validA == validB {
			t.Fatalf("split: identical (tag,valid) (%d,%v) packed to distinct probe keys %#x %#x",
				tagA, validA, wa, wb)
		}
		// A valid word never looks like an empty slot.
		if validA && wa == 0 {
			t.Fatalf("valid tag %d packed to the empty-slot word", tagA)
		}
	})
}
