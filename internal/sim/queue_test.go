package sim

import (
	"fmt"
	"sort"
	"testing"
)

// These tests pin the hybrid queue (near-future bucket ring + overflow
// 4-ary heap) against the behavior of a naive sorted-list event queue:
// the ring/heap split, lazy migration, and lazy cancellation must be
// invisible — only the (at, seq) total order may determine firing.

// TestRingHorizonBoundary pins the routing rule at the edge of the ring:
// an event exactly at now+ringHorizon is the first one that overflows to
// the heap, one bucket earlier still rides the ring — and the heap
// resident migrates into the ring once the clock advances.
func TestRingHorizonBoundary(t *testing.T) {
	s := New(1)
	var order []string
	atHorizon := s.At(ringHorizon, "at-horizon", func() { order = append(order, "at-horizon") })
	inside := s.At(ringHorizon-bucketSpan, "inside", func() { order = append(order, "inside") })
	if atHorizon.index == ringIndex {
		t.Fatal("event exactly at the horizon went to the ring, want heap")
	}
	if inside.index != ringIndex {
		t.Fatal("event one bucket inside the horizon went to the heap, want ring")
	}
	if !s.Step() {
		t.Fatal("Step found no event")
	}
	if len(order) != 1 || order[0] != "inside" {
		t.Fatalf("first fired %v, want [inside]", order)
	}
	// Advancing to the inside event slid the horizon past the heap
	// resident: it must have migrated into the ring.
	if atHorizon.index != ringIndex {
		t.Fatal("heap event did not migrate into the ring after the clock advanced")
	}
	s.Run()
	if len(order) != 2 || order[1] != "at-horizon" {
		t.Fatalf("fired %v, want [inside at-horizon]", order)
	}
}

// TestCancelRingResident cancels an event that lives in the bucket ring:
// it must not fire, its struct must be recycled when the cursor passes it,
// and the accounting must match the heap-resident cancel path.
func TestCancelRingResident(t *testing.T) {
	s := New(1)
	var fired int
	dead := s.After(2*Nanosecond, "dead", func() { t.Fatal("cancelled ring event fired") })
	live := s.After(5*Nanosecond, "live", func() { fired++ })
	if dead.index != ringIndex {
		t.Fatal("2ns event not ring-resident")
	}
	if !s.Cancel(dead) {
		t.Fatal("Cancel returned false for a ring-resident event")
	}
	if dead.Pending() {
		t.Fatal("cancelled event still Pending")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	// The corpse sits at the ring front; NextAt must skip it.
	if s.NextAt() != 5*Nanosecond {
		t.Fatalf("NextAt = %v, want 5ns", s.NextAt())
	}
	s.Run()
	if fired != 1 || s.Fired() != 1 || s.Cancelled() != 1 {
		t.Fatalf("fired=%d Fired=%d Cancelled=%d, want 1/1/1", fired, s.Fired(), s.Cancelled())
	}
	// The corpse was recycled: the next schedule reuses a consumed struct.
	if e := s.After(Nanosecond, "reuse", func() {}); e != live && e != dead {
		t.Fatal("neither consumed event struct was recycled")
	}
}

// TestRunUntilMidBucket stops the clock between two events that share a
// ring bucket, then schedules more events into that same, half-consumed
// bucket — the mid-consumption insert path of the front bucket's
// mini-heap.
func TestRunUntilMidBucket(t *testing.T) {
	if 3*Nanosecond >= bucketSpan {
		t.Fatal("test assumes 1ns and 3ns share bucket 0")
	}
	s := New(1)
	var order []Time
	note := func() { order = append(order, s.Now()) }
	s.At(Nanosecond, "a", note)
	s.At(3*Nanosecond, "b", note)
	if n := s.RunUntil(2 * Nanosecond); n != 1 {
		t.Fatalf("RunUntil fired %d events, want 1", n)
	}
	if s.Now() != 2*Nanosecond {
		t.Fatalf("clock at %v, want 2ns", s.Now())
	}
	// Insert into the live front bucket, earlier than its remaining event.
	s.At(2200*Picosecond, "c", note)
	s.At(2500*Picosecond, "d", note)
	s.Run()
	want := []Time{Nanosecond, 2200 * Picosecond, 2500 * Picosecond, 3 * Nanosecond}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired at %v, want %v", order, want)
		}
	}
}

// TestEqualTimestampFIFOAcrossBoundary pins FIFO tie-breaking among
// equal-timestamp events that enter through different routes: two
// scheduled far ahead (heap, then migrated), the rest scheduled directly
// into the ring after the clock moved. Scheduling order must win.
func TestEqualTimestampFIFOAcrossBoundary(t *testing.T) {
	s := New(1)
	const T = 2 * ringHorizon
	var order []int
	s.At(T, "first", func() { order = append(order, 1) })  // heap
	s.At(T, "second", func() { order = append(order, 2) }) // heap
	// Drag the clock close enough that T is inside the horizon; from the
	// callback, schedule another equal-timestamp event (post-migration,
	// ring path).
	s.At(T-Nanosecond, "mover", func() {
		s.At(T, "third", func() { order = append(order, 3) })
	})
	if n := s.RunUntil(T - Nanosecond); n != 1 {
		t.Fatalf("RunUntil fired %d events, want 1", n)
	}
	s.At(T, "fourth", func() { order = append(order, 4) }) // ring path
	s.Run()
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("equal-timestamp events fired out of scheduling order: %v", order)
		}
	}
}

// queueChecker drives one randomized scenario and checks the hybrid queue
// against the reference semantics of a naive sorted list: every firing
// must be the live event with the smallest (at, seq), verified online
// against a shadow live-set that records every schedule and cancel.
type queueChecker struct {
	t   *testing.T
	s   *Sim
	r   *RNG
	sc  int
	ids uint64

	// live mirrors the queue's live events: id -> scheduled instant.
	live map[uint64]Time
	// handle holds the *Event for live events only; entries leave the map
	// before the struct can be recycled (on fire or on cancel).
	handle map[uint64]*Event
	// order maps id -> schedule sequence for the FIFO check (ids are
	// assigned in schedule order, so the id doubles as the sequence).
	lastAt  Time
	lastID  uint64
	firedN  int
	spawned int
}

// delayFor biases delays toward the structure's seams: same-instant,
// sub-bucket, inside the ring, at and around the horizon, far future.
func (c *queueChecker) delayFor() Time {
	switch c.r.Intn(12) {
	case 0:
		return 0
	case 1, 2:
		return Time(c.r.Intn(int(bucketSpan)))
	case 3, 4, 5:
		return Time(c.r.Intn(int(ringHorizon)))
	case 6:
		return ringHorizon - 2 + Time(c.r.Intn(4))
	case 7:
		return ringHorizon * Time(1+c.r.Intn(3))
	case 8:
		return bucketSpan * Time(c.r.Intn(2*ringSlots))
	default:
		return Time(c.r.Intn(int(Millisecond)))
	}
}

// schedule registers one event on both the queue and the shadow set. The
// callback re-checks the reference invariant and may spawn children.
func (c *queueChecker) schedule(at Time) {
	id := c.ids
	c.ids++
	c.live[id] = at
	e := c.s.At(at, "ev", func() { c.fired(id, at) })
	c.handle[id] = e
	if !e.Pending() {
		c.t.Fatalf("scenario %d: scheduled event not Pending", c.sc)
	}
}

// fired is the specification check: when id fires, no other live event may
// precede it in (at, seq), the clock must sit exactly at its instant, and
// firing must be monotone in (at, seq).
func (c *queueChecker) fired(id uint64, at Time) {
	if c.s.Now() != at {
		c.t.Fatalf("scenario %d: event %d fired at %v, scheduled for %v", c.sc, id, c.s.Now(), at)
	}
	if at < c.lastAt || (at == c.lastAt && id < c.lastID && c.firedN > 0) {
		// id < lastID at equal instants is only legal if id was scheduled
		// after lastID fired — impossible, since ids grow monotonically and
		// lastID already fired. So this is a FIFO violation.
		c.t.Fatalf("scenario %d: event %d (at %v) fired after event %d (at %v)",
			c.sc, id, at, c.lastID, c.lastAt)
	}
	c.lastAt, c.lastID = at, id
	c.firedN++
	delete(c.live, id)
	delete(c.handle, id)
	for other, oat := range c.live {
		if oat < at || (oat == at && other < id) {
			c.t.Fatalf("scenario %d: event %d (at %v) fired while live event %d (at %v) precedes it",
				c.sc, id, at, other, oat)
		}
	}
	// Reentrant scheduling: a third of firings spawn one or two children.
	if c.spawned < 300 && c.r.Intn(3) == 0 {
		n := 1 + c.r.Intn(2)
		for i := 0; i < n; i++ {
			c.spawned++
			c.schedule(at + c.delayFor())
		}
	}
}

// checkAgainstShadow compares NextAt and Pending with a scan of the
// shadow live-set.
func (c *queueChecker) checkAgainstShadow() {
	wantNext := Never
	for _, at := range c.live {
		if at < wantNext {
			wantNext = at
		}
	}
	if got := c.s.NextAt(); got != wantNext {
		c.t.Fatalf("scenario %d: NextAt = %v, shadow min = %v", c.sc, got, wantNext)
	}
	if got := c.s.Pending(); got != len(c.live) {
		c.t.Fatalf("scenario %d: Pending = %d, shadow live = %d", c.sc, got, len(c.live))
	}
}

// TestQueueMatchesReferenceModel cross-checks the hybrid ring/heap queue
// against naive sorted-list semantics under randomized schedule, cancel,
// and RunUntil interleavings — including reentrant scheduling from
// callbacks — across 10k scenarios.
func TestQueueMatchesReferenceModel(t *testing.T) {
	scenarios := 10000
	if testing.Short() {
		scenarios = 1000
	}
	for sc := 0; sc < scenarios; sc++ {
		c := &queueChecker{
			t:      t,
			s:      New(uint64(sc) + 1),
			r:      NewRNG(uint64(sc)*0x9E3779B9 + 7),
			sc:     sc,
			live:   map[uint64]Time{},
			handle: map[uint64]*Event{},
		}
		ops := 4 + c.r.Intn(28)
		for op := 0; op < ops; op++ {
			switch c.r.Intn(8) {
			case 0, 1, 2, 3: // schedule an external event
				c.schedule(c.s.Now() + c.delayFor())
			case 4: // cancel a deterministically chosen live event
				if len(c.handle) > 0 {
					ids := make([]uint64, 0, len(c.handle))
					for id := range c.handle {
						ids = append(ids, id)
					}
					sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
					id := ids[c.r.Intn(len(ids))]
					e := c.handle[id]
					if !c.s.Cancel(e) {
						t.Fatalf("scenario %d: Cancel returned false for live event %d", sc, id)
					}
					if e.Pending() {
						t.Fatalf("scenario %d: cancelled event %d still Pending", sc, id)
					}
					delete(c.live, id)
					delete(c.handle, id)
				}
			case 5, 6: // advance the clock through a mixed horizon
				target := c.s.Now() + c.delayFor()
				c.s.RunUntil(target)
				if c.s.Now() != target {
					t.Fatalf("scenario %d: RunUntil(%v) left clock at %v", sc, target, c.s.Now())
				}
				if next := c.s.NextAt(); next <= target {
					t.Fatalf("scenario %d: RunUntil(%v) left an event due at %v unfired", sc, target, next)
				}
			case 7: // step a few events
				for i := 0; i < 3; i++ {
					c.s.Step()
				}
			}
			c.checkAgainstShadow()
		}
		c.s.Run()
		c.checkAgainstShadow()
		if len(c.live) != 0 {
			t.Fatalf("scenario %d: %d events never fired", sc, len(c.live))
		}
		if got := int(c.s.Fired()); got != c.firedN {
			t.Fatalf("scenario %d: Fired = %d, callbacks ran %d times", sc, got, c.firedN)
		}
	}
}

// TestQueueCompactionUnderRingCancels forces compaction while corpses sit
// in both halves of the queue, then checks nothing live was lost and that
// the survivors still fire in (at, seq) order. Two of every three events
// are cancelled, so corpses outnumber live events and compaction runs.
// Events are scheduled in descending time, sixteen to a bucket, so each
// bucket's heap order differs from its slice order and filtering corpses
// out of it breaks the heap unless compaction restores it.
func TestQueueCompactionUnderRingCancels(t *testing.T) {
	type fire struct {
		at  Time
		seq uint64
	}
	s := New(1)
	var fired []fire
	var keep []*Event
	var kill []*Event
	for i := 399; i >= 0; i-- {
		nearSeq := s.seq
		near := s.At(Time(i)*bucketSpan/16, "near", func() { fired = append(fired, fire{s.Now(), nearSeq}) })
		farSeq := s.seq
		far := s.At(ringHorizon+Time(i)*Microsecond, "far", func() { fired = append(fired, fire{s.Now(), farSeq}) })
		if i%3 == 0 {
			keep = append(keep, near, far)
		} else {
			kill = append(kill, near, far)
		}
	}
	for _, e := range kill {
		if !s.Cancel(e) {
			t.Fatal("cancel of queued event failed")
		}
	}
	if s.Pending() != len(keep) {
		t.Fatalf("Pending = %d, want %d", s.Pending(), len(keep))
	}
	if len(s.heap)+s.ringN == len(keep)+len(kill) {
		t.Fatal("compaction never ran")
	}
	for _, e := range keep {
		if !e.Pending() {
			t.Fatal("compaction dropped a live event")
		}
	}
	s.Run()
	if len(fired) != len(keep) {
		t.Fatalf("fired %d, want %d", len(fired), len(keep))
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("fire %d at (%v, %d) after (%v, %d): not in (at, seq) order", i, b.at, b.seq, a.at, a.seq)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", s.Pending())
	}
}

// sanity check for the test file itself: the constants the edge tests
// assume.
func TestQueueConstants(t *testing.T) {
	if ringHorizon != bucketSpan*ringSlots {
		t.Fatalf("ringHorizon = %v, want %v", ringHorizon, bucketSpan*ringSlots)
	}
	if got := fmt.Sprintf("%v", ringHorizon); got == "" {
		t.Fatal("unreachable")
	}
}
