package fabric

import (
	"fmt"

	"lauberhorn/internal/sim"
)

// Fault injection: scheduled availability events against links and
// switches. Faults are ordinary simulator events, so a fault schedule is
// part of a scenario's deterministic input — two runs of the same spec
// flap the same links at the same virtual times, and serial/parallel
// experiment runs stay byte-identical.

// LinkFault is one scheduled carrier transition.
type LinkFault struct {
	At sim.Time
	Up bool
}

// Flap builds the canonical flap schedule: starting at start, the link
// goes down for downFor and back up for upFor, cycles times. The
// returned schedule ends with the link up.
func Flap(start, downFor, upFor sim.Time, cycles int) []LinkFault {
	if downFor <= 0 || upFor < 0 || cycles <= 0 {
		panic(fmt.Sprintf("fabric: bad flap downFor=%v upFor=%v cycles=%d", downFor, upFor, cycles))
	}
	var out []LinkFault
	at := start
	for i := 0; i < cycles; i++ {
		out = append(out, LinkFault{At: at, Up: false})
		at += downFor
		out = append(out, LinkFault{At: at, Up: true})
		at += upFor
	}
	return out
}

// ScheduleLinkFaults schedules carrier transitions on a link.
func ScheduleLinkFaults(s *sim.Sim, l *Link, faults []LinkFault) {
	for _, f := range faults {
		up := f.Up
		s.At(f.At, "fault-link", func() { l.SetUp(up) })
	}
}

// ScheduleDrain drains a switch from at until until (forever when until
// is zero): every frame it receives in the window is dropped.
func ScheduleDrain(s *sim.Sim, sw *Switch, at, until sim.Time) {
	s.At(at, "fault-drain", func() { sw.SetDrain(true) })
	if until > 0 {
		if until <= at {
			panic(fmt.Sprintf("fabric: drain until %v <= at %v", until, at))
		}
		s.At(until, "fault-undrain", func() { sw.SetDrain(false) })
	}
}
