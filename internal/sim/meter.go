package sim

// Meter aggregates activity across the Sim instances one logical task (an
// experiment, a benchmark iteration) creates. A nil *Meter is valid and
// records nothing, so instrumented code can be called without a meter.
//
// A Meter is not safe for concurrent use; give each task its own. The
// parallel experiment runner creates one Meter per experiment, which is
// how per-experiment event counts stay exact even when many experiments
// run at once.
type Meter struct {
	sims []*Sim
}

// Observe registers a Sim with the meter. Observing nil is a no-op.
func (m *Meter) Observe(s *Sim) {
	if m == nil || s == nil {
		return
	}
	m.sims = append(m.sims, s)
}

// Sims reports how many simulators have been observed.
func (m *Meter) Sims() int {
	if m == nil {
		return 0
	}
	return len(m.sims)
}

// EventsFired sums events executed across all observed simulators.
func (m *Meter) EventsFired() uint64 {
	if m == nil {
		return 0
	}
	var n uint64
	for _, s := range m.sims {
		n += s.Fired()
	}
	return n
}
