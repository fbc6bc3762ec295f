package trace

// Batch is a columnar block of records: four parallel slices, one per
// Record field, always of equal length. Every Source fills batches, so the
// per-record cost of the interface (a dispatch and a 24-byte struct copy)
// is paid once per few thousand records instead of once per record.
//
// The caller sizes a batch with Resize to say how many records it wants;
// a Source fills the columns from index 0 and returns how many it
// wrote. Columns may hold stale data past the returned count.
type Batch struct {
	Cycle []uint64
	Addr  []uint64
	CPU   []uint8
	Write []bool
}

// Resize sets the batch length to n records, reusing column capacity when
// it suffices and reallocating (all four columns together) when not.
func (b *Batch) Resize(n int) {
	if cap(b.Cycle) < n {
		b.Cycle = make([]uint64, n)
		b.Addr = make([]uint64, n)
		b.CPU = make([]uint8, n)
		b.Write = make([]bool, n)
		return
	}
	b.Cycle = b.Cycle[:n]
	b.Addr = b.Addr[:n]
	b.CPU = b.CPU[:n]
	b.Write = b.Write[:n]
}

// Len returns the batch length in records.
func (b *Batch) Len() int { return len(b.Cycle) }

// Record returns record i as a Record value.
func (b *Batch) Record(i int) Record {
	return Record{Cycle: b.Cycle[i], Addr: b.Addr[i], CPU: b.CPU[i], Write: b.Write[i]}
}

// Set stores r at index i.
func (b *Batch) Set(i int, r Record) {
	b.Cycle[i] = r.Cycle
	b.Addr[i] = r.Addr
	b.CPU[i] = r.CPU
	b.Write[i] = r.Write
}

// head returns a view of the first n records without copying.
func (b *Batch) head(n int) Batch {
	return Batch{Cycle: b.Cycle[:n], Addr: b.Addr[:n], CPU: b.CPU[:n], Write: b.Write[:n]}
}

// copyFrom copies records [from, from+n) of src into b starting at index
// at, and returns n.
func (b *Batch) copyFrom(src *Batch, at, from, n int) int {
	copy(b.Cycle[at:at+n], src.Cycle[from:from+n])
	copy(b.Addr[at:at+n], src.Addr[from:from+n])
	copy(b.CPU[at:at+n], src.CPU[from:from+n])
	copy(b.Write[at:at+n], src.Write[from:from+n])
	return n
}
