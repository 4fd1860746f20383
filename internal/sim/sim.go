package sim

import "fmt"

// Event is a scheduled callback. Events are created with Sim.At or Sim.After
// and may be cancelled before they fire. The zero Event is not valid.
//
// Event structs are recycled through a per-Sim free list once they fire or
// are cancelled, so a *Event must not be passed to Cancel after its callback
// has run: the struct may since have been reissued for a different event.
// Holders that keep a timer pointer must clear it inside the callback (as
// the kernel quantum/slice timers and the NIC TryAgain timer do).
type Event struct {
	at    Time
	seq   uint64
	index int // heap index; ringIndex in the ring; -1 once popped
	fn    func()
	name  string
}

// At reports the instant the event is (or was) scheduled to fire.
func (e *Event) At() Time { return e.at }

// Name reports the diagnostic label given at scheduling time.
func (e *Event) Name() string { return e.name }

// Pending reports whether the event is still queued and will fire.
func (e *Event) Pending() bool { return e.index >= 0 && e.fn != nil }

// Sim is a discrete-event simulator: a virtual clock plus an ordered queue
// of future events. It is single-threaded; models call back into the
// simulator from event callbacks to schedule further work. Distinct Sim
// instances are fully independent and may run on separate goroutines.
//
// The queue is a hybrid: a ring of heap-ordered buckets for events within
// ringHorizon of now, an inline 4-ary min-heap for the rest (see
// queue.go). Both order events by (at, seq) so simultaneous events fire
// in scheduling order, which keeps runs deterministic. Step, Run and
// RunUntil fire events one at a time in that order.
type Sim struct {
	now Time
	seq uint64

	heap   []*Event             // overflow min-heap: events at or beyond the ring horizon
	ring   *[ringSlots][]*Event // near-future buckets, bucketSpan wide each, each a 4-ary min-heap
	occ    [occWords]uint64     // bitmap of non-empty buckets, for O(1) cursor jumps
	ringN  int                  // events resident in the ring, dead included
	frontB int64                // absolute bucket number under the front cursor, -1 when the ring is empty

	free      []*Event // recycled Event structs, reused by At/After
	rng       *RNG
	live      int // queued events that have not been lazily cancelled
	fired     uint64
	cancelled uint64
	recycled  uint64 // allocations avoided via the free list
	stopped   bool
}

// New returns a simulator with the clock at zero and an RNG derived from
// seed.
func New(seed uint64) *Sim {
	return &Sim{rng: NewRNG(seed), ring: new([ringSlots][]*Event), frontB: -1}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's root RNG.
func (s *Sim) Rand() *RNG { return s.rng }

// Fired reports how many events have executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Cancelled reports how many events were cancelled before firing.
func (s *Sim) Cancelled() uint64 { return s.cancelled }

// Recycled reports how many Event allocations the free list avoided.
func (s *Sim) Recycled() uint64 { return s.recycled }

// Pending reports how many live (non-cancelled) events are queued.
func (s *Sim) Pending() int { return s.live }

// alloc returns an Event from the free list, or a fresh one.
//
//lhlint:hotpath
func (s *Sim) alloc(at Time, seq uint64, name string, fn func()) *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.recycled++
		e.at, e.seq, e.name, e.fn = at, seq, name, fn
		return e
	}
	return &Event{at: at, seq: seq, name: name, fn: fn}
}

// recycle returns a popped (index == -1) dead event to the free list.
//
//lhlint:hotpath
func (s *Sim) recycle(e *Event) {
	e.fn = nil
	e.name = ""
	s.free = append(s.free, e)
}

// At schedules fn to run at instant t, which must not be in the past.
// The name is a diagnostic label reported by String and tracing.
//
//lhlint:hotpath
func (s *Sim) At(t Time, name string, fn func()) *Event {
	if t < s.now {
		panicPastSchedule(name, t, s.now)
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e := s.alloc(t, s.seq, name, fn)
	s.seq++
	s.live++
	s.push(e)
	return e
}

// After schedules fn to run d from now. Negative d panics.
//
//lhlint:hotpath
func (s *Sim) After(d Time, name string, fn func()) *Event {
	if d < 0 {
		panicNegativeDelay(name, d)
	}
	return s.At(s.now+d, name, fn)
}

// panicPastSchedule and panicNegativeDelay keep the fmt boxing of the
// scheduling panics off the hot path; they never return.
func panicPastSchedule(name string, t, now Time) {
	panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, now))
}

func panicNegativeDelay(name string, d Time) {
	panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
}

// Cancel marks a pending event dead. Cancellation is lazy: the event stays
// in the queue and is discarded (and its struct recycled) when it reaches
// the front, so no mid-queue surgery happens on deschedule-heavy paths.
// Cancelling an event that already fired or was already cancelled is a
// no-op and returns false.
//
//lhlint:hotpath
func (s *Sim) Cancel(e *Event) bool {
	if e == nil || e.index < 0 || e.fn == nil {
		return false
	}
	e.fn = nil
	s.live--
	s.cancelled++
	s.maybeCompact()
	return true
}

// Step fires the earliest pending event, advancing the clock to its instant.
// It returns false when the queue is empty or the simulation was stopped.
//
//lhlint:hotpath
func (s *Sim) Step() bool {
	if s.stopped {
		return false
	}
	e := s.peek()
	if e == nil {
		return false
	}
	s.fire(e)
	return true
}

// fire pops e, which peek just returned, advances the clock to its
// instant and runs its callback. Step, Run and RunUntil all fire through
// it, so every loop fires events in the same (at, seq) order.
//
//lhlint:hotpath
func (s *Sim) fire(e *Event) {
	if e.index == ringIndex {
		s.ringPopFront(e)
	} else {
		s.heapPop()
	}
	s.advance(e.at)
	fn := e.fn
	s.live--
	s.fired++
	s.recycle(e)
	fn()
}

// Run fires events until the queue drains or Stop is called.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t
// (even if the queue still holds later events). It returns the number of
// events fired.
func (s *Sim) RunUntil(t Time) uint64 {
	if t < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, s.now))
	}
	start := s.fired
	for !s.stopped {
		e := s.peek()
		if e == nil || e.at > t {
			break
		}
		s.fire(e)
	}
	if !s.stopped && s.now < t {
		s.advance(t)
	}
	return s.fired - start
}

// Stop halts Run/RunUntil after the current event completes. Further Step
// calls return false. The queue is left intact for inspection.
func (s *Sim) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Sim) Stopped() bool { return s.stopped }

// NextAt returns the instant of the earliest pending event, or Never when
// the queue is empty.
func (s *Sim) NextAt() Time {
	e := s.peek()
	if e == nil {
		return Never
	}
	return e.at
}

// String summarizes the simulator state for diagnostics.
func (s *Sim) String() string {
	return fmt.Sprintf("sim{now=%v pending=%d fired=%d}", s.now, s.live, s.fired)
}
