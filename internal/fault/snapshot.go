package fault

import "heteromem/internal/snap"

// Snap carries the injector's mutable state — the PRNG state word, the
// per-point probe ordinals, and the fault count. The configuration, rates,
// and parsed schedule are construction inputs and are rebuilt from Config
// on restore.
func (i *Injector) Snap(s *snap.Stream) {
	state := i.prng.State()
	s.U64(&state)
	i.prng.SetState(state)
	for p := range i.probes {
		s.U64(&i.probes[p])
	}
	s.U64(&i.faults)
}

// Snap carries the fault ledger.
func (r *Report) Snap(s *snap.Stream) {
	for _, c := range []*uint64{
		&r.Injected, &r.DeviceFaults, &r.CopyFaults, &r.BulkFaults, &r.Retried,
		&r.RolledBack, &r.Retired, &r.Degraded, &r.SwapsRolledBack, &r.SlotsRetired,
	} {
		s.U64(c)
	}
	s.Bool(&r.DegradedMode)
}
