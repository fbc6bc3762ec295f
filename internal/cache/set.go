package cache

import (
	"fmt"

	"heteromem/internal/snap"
)

// Each slot packs into one word: tag<<2 | dirty<<1 | valid, so the recency
// shuffle is a word copy and a set fits a few cache lines. Physical
// addresses are at most 48 bits and the tag drops the line and set bits,
// so the tag always fits the 62 bits above the flag pair.
const (
	slotValid = 1 << 0
	slotDirty = 1 << 1
	slotTag   = 2 // tag shift

	// TagBits bounds the tags PackSlot accepts losslessly: 48-bit physical
	// addresses leave at most 48 significant tag bits after the line
	// shift, comfortably under the 62 the packed word carries.
	TagBits = 62
)

// PackSlot packs a slot word. The fuzz target FuzzSetCodec pins that
// Pack/Unpack round-trip and that distinct tags never alias.
func PackSlot(tag uint64, dirty, valid bool) uint64 {
	w := tag << slotTag
	if dirty {
		w |= slotDirty
	}
	if valid {
		w |= slotValid
	}
	return w
}

// UnpackSlot unpacks a slot word.
func UnpackSlot(w uint64) (tag uint64, dirty, valid bool) {
	return w >> slotTag, w&slotDirty != 0, w&slotValid != 0
}

// SetArray is the packed slot store of every cache model: sets×ways words,
// set-major, index 0 of a set is the MRU way (slot order within a set is
// recency order, true LRU). The caller picks the set and tag: the SRAM
// levels split a line address by shift, the on-package cache schemes by
// block % sets and block / sets, so any set count works — a memcache split
// leaves the cache part with a non-power-of-two capacity.
type SetArray struct {
	sets  uint64
	ways  int
	slots []uint64
}

// NewSetArray builds a sets×ways array.
func NewSetArray(sets uint64, ways int) (*SetArray, error) {
	a, err := newSetArray(nil, sets, ways)
	if err != nil {
		return nil, err
	}
	return &a, nil
}

// newSetArray builds a sets×ways array, serving the slots from buf when it
// has the capacity (cleared first, so the array starts cold either way).
func newSetArray(buf []uint64, sets uint64, ways int) (SetArray, error) {
	if sets == 0 {
		return SetArray{}, fmt.Errorf("cache: zero set count")
	}
	if ways <= 0 {
		return SetArray{}, fmt.Errorf("cache: invalid way count %d", ways)
	}
	need := sets * uint64(ways)
	var slots []uint64
	if uint64(cap(buf)) >= need {
		slots = buf[:need]
		clear(slots)
	} else {
		slots = make([]uint64, need)
	}
	return SetArray{sets: sets, ways: ways, slots: slots}, nil
}

// Sets returns the set count.
func (a *SetArray) Sets() uint64 { return a.sets }

// Probe looks tag up in set. On a hit the way moves to MRU and, for a
// write, turns dirty; way is the block's recency position after the
// reorder (always 0 on a hit).
func (a *SetArray) Probe(set, tag uint64, write bool) (hit bool, way int) {
	base := int(set) * a.ways
	ss := a.slots[base : base+a.ways]
	want := tag<<slotTag | slotValid
	for i, w := range ss {
		if w&^uint64(slotDirty) == want {
			if write {
				w |= slotDirty
			}
			copy(ss[1:i+1], ss[:i])
			ss[0] = w
			return true, 0
		}
	}
	return false, 0
}

// Insert fills tag into set at the MRU way, evicting the LRU way. It
// returns the victim's tag and flags (victimValid false when the way was
// empty).
func (a *SetArray) Insert(set, tag uint64, write bool) (victimTag uint64, victimDirty, victimValid bool) {
	base := int(set) * a.ways
	ss := a.slots[base : base+a.ways]
	victimTag, victimDirty, victimValid = UnpackSlot(ss[a.ways-1])
	copy(ss[1:], ss[:a.ways-1])
	ss[0] = PackSlot(tag, write, true)
	return victimTag, victimDirty && victimValid, victimValid
}

// Snap carries the array sparsely: cold sets stay all-zero for most of a
// run, so (index, word) pairs keep checkpoints proportional to the touched
// footprint, not the configured capacity.
func (a *SetArray) Snap(s *snap.Stream) {
	sets, ways := a.sets, a.ways
	s.U64(&sets)
	snap.Uint32(s, &ways)
	if sets != a.sets || ways != a.ways {
		s.Invalid("set array shape %dx%d, snapshot has %dx%d", a.sets, a.ways, sets, ways)
		return
	}
	snap.Sparse(s, "slot index", a.slots, 0, snap.Uint32[int], (*snap.Stream).U64)
}
