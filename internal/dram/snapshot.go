package dram

import "heteromem/internal/snap"

// Snap carries the device's dynamic state: every bank's open row, ready
// time, and last-op flag, each channel's bus-free time, and the cumulative
// statistics. Geometry and timing are construction inputs, and the fault
// hook is re-installed by the controller that owns the device.
func (d *Device) Snap(s *snap.Stream) {
	s.Shape(len(d.banks), "device channels")
	for c := range d.banks {
		s.Shape(len(d.banks[c]), "channel banks")
		for b := range d.banks[c] {
			bk := &d.banks[c][b]
			snap.Int64(s, &bk.openRow)
			snap.Int64(s, &bk.readyAt)
			s.Bool(&bk.lastWrite)
		}
		snap.Int64(s, &d.busFree[c])
	}
	for _, c := range []*uint64{&d.rowHits, &d.rowMisses, &d.rowConf, &d.bursts, &d.refreshStalls, &d.faultedBursts} {
		s.U64(c)
	}
}
