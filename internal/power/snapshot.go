package power

import "heteromem/internal/snap"

// Snap carries the four traffic accumulators; the energy constants are
// construction inputs.
func (m *Meter) Snap(s *snap.Stream) {
	s.F64(&m.accessBitsOn)
	s.F64(&m.accessBitsOff)
	s.F64(&m.copyBitsOn)
	s.F64(&m.copyBitsOff)
}
