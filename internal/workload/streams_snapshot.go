package workload

import "heteromem/internal/snap"

// Per-stream snapshot state. Only mutable cursor state is serialized;
// sizes, strides, schedules, and distribution parameters are rebuilt from
// the Spec when the generator is reconstructed, and the random state all
// streams draw from lives in the Generator's shared PRNG.

func (s *seqStream) snap(st *snap.Stream) { st.U64(&s.pos) }

func (s *stridedStream) snap(st *snap.Stream) {
	st.U64(&s.pos)
	st.U64(&s.base)
	st.U64(&s.inCh)
}

func (s *zipfStream) snap(*snap.Stream)    {} // draws only from the shared PRNG
func (s *uniformStream) snap(*snap.Stream) {}

func (s *chaseStream) snap(st *snap.Stream) { st.U64(&s.cur) }

func (v *vcycleStream) snap(st *snap.Stream) {
	snap.Uint32(st, &v.idx)
	snap.Uint32(st, &v.count)
	if v.idx >= len(v.sched) {
		st.Invalid("vcycle index %d out of range", v.idx)
		v.idx = 0
	}
	for i := range v.levels {
		v.levels[i].snap(st)
	}
}

func (s *driftStream) snap(st *snap.Stream) {
	st.U64(&s.count)
	st.U64(&s.base)
	st.Bool(&s.init)
	s.inner.snap(st)
}
