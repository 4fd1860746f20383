package sim

// Property test for the determinism contract: Run must fire events in
// exactly the (at, seq) order of one-at-a-time stepping. Each random
// scenario is an event cascade — callbacks schedule children (including
// same-instant ones, which must fire after every event already queued at
// that instant) and cancel pending events — executed twice, once via Step
// and once via Run, with the fired order serialized to bytes and compared.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// scenarioTrace builds the seed's cascade and runs it to completion,
// returning the byte-serialized fire order. All scheduling decisions come
// from a scenario RNG separate from the Sim's: when the two execution
// modes fire in the same order they draw identical decision streams, and
// any ordering divergence amplifies into a trace mismatch.
//
// The live registry tracks only events that have neither fired nor been
// cancelled — Event structs are recycled at fire time, so holding a stale
// pointer across a fire and cancelling it would hit whatever event reused
// the struct (model code never does this; the test must not either).
func scenarioTrace(seed int64, run bool) []byte {
	const maxEvents = 64
	type liveEvent struct {
		id int
		e  *Event
	}
	s := New(uint64(seed))
	rng := rand.New(rand.NewSource(seed))
	var trace []byte
	var live []liveEvent
	drop := func(id int) {
		for i := range live {
			if live[i].id == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	nextID := 0
	scheduled := 0
	var schedule func()
	schedule = func() {
		id := nextID
		nextID++
		scheduled++
		// Delay 0 keeps the child on the current instant: its higher seq
		// must put it behind every event already queued at that instant.
		d := Time(rng.Intn(4)) * Nanosecond
		e := s.After(d, "cascade", func() {
			drop(id)
			trace = binary.LittleEndian.AppendUint32(trace, uint32(id))
			trace = binary.LittleEndian.AppendUint64(trace, uint64(s.Now()))
			for n := rng.Intn(4); n > 0 && scheduled < maxEvents; n-- {
				schedule()
			}
			if len(live) > 0 && rng.Intn(4) == 0 {
				victim := live[rng.Intn(len(live))]
				s.Cancel(victim.e)
				drop(victim.id)
			}
		})
		live = append(live, liveEvent{id, e})
	}
	for i := 0; i < 4; i++ {
		schedule()
	}
	if run {
		s.Run()
	} else {
		for s.Step() {
		}
	}
	trace = binary.LittleEndian.AppendUint64(trace, s.Fired())
	trace = binary.LittleEndian.AppendUint64(trace, s.Cancelled())
	return trace
}

func TestRunMatchesStepOrder(t *testing.T) {
	const scenarios = 10_000
	for seed := int64(0); seed < scenarios; seed++ {
		stepped := scenarioTrace(seed, false)
		ran := scenarioTrace(seed, true)
		if !bytes.Equal(stepped, ran) {
			t.Fatalf("seed %d: Run fire order diverged from step order\nstep: %x\nrun:  %x",
				seed, stepped, ran)
		}
	}
}
