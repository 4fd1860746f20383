package fabric

import (
	"testing"

	"lauberhorn/internal/sim"
)

// linkPair builds an attached point-to-point link between two recorders.
func linkPair(t *testing.T, params NetParams) (*sim.Sim, *Link, *portRecorder, *portRecorder) {
	t.Helper()
	s := sim.New(1)
	a, b := &portRecorder{name: "a"}, &portRecorder{name: "b"}
	l := NewLink(s, params)
	l.Attach(a, b)
	return s, l, a, b
}

func TestLinkDownDropsAndRecovers(t *testing.T) {
	s, l, _, b := linkPair(t, Net100G)
	l.Send(0, frameTo(macN(2), macN(1)))
	l.SetUp(false)
	l.Send(0, frameTo(macN(2), macN(1)))
	l.Send(0, frameTo(macN(2), macN(1)))
	l.SetUp(true)
	l.Send(0, frameTo(macN(2), macN(1)))
	s.Run()
	if len(b.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(b.frames))
	}
	if l.Dropped(0) != 2 || l.DroppedTotal() != 2 {
		t.Fatalf("dropped %d/%d, want 2/2", l.Dropped(0), l.DroppedTotal())
	}
}

// TestLinkDownDoesNotCancelInFlight: bits that left the sender before
// the cut still arrive.
func TestLinkDownDoesNotCancelInFlight(t *testing.T) {
	s, l, _, b := linkPair(t, Net100G)
	l.Send(0, frameTo(macN(2), macN(1)))
	s.After(10*sim.Nanosecond, "cut", func() { l.SetUp(false) })
	s.Run()
	if len(b.frames) != 1 {
		t.Fatalf("in-flight frame lost by a later cut")
	}
}

func TestLinkQueueLimitTailDrops(t *testing.T) {
	params := Net100G
	params.QueueLimit = 100 * sim.Nanosecond
	s, l, _, b := linkPair(t, params)
	// 1500B at 12.5 B/ns = 120ns serialization each, so a back-to-back
	// burst exceeds the 100ns queue limit from the second frame on.
	sent := 8
	for i := 0; i < sent; i++ {
		f := make([]byte, 1500)
		dst, src := macN(2), macN(1)
		copy(f[0:6], dst[:])
		copy(f[6:12], src[:])
		l.Send(0, f)
	}
	s.Run()
	if l.Dropped(0) == 0 {
		t.Fatal("no tail drops despite a saturating burst")
	}
	if uint64(len(b.frames))+l.Dropped(0) != uint64(sent) {
		t.Fatalf("delivered %d + dropped %d != %d", len(b.frames), l.Dropped(0), sent)
	}
	if l.PeakBacklog(0) == 0 {
		t.Fatal("peak backlog not tracked")
	}
	if l.PeakBacklog(0) > params.QueueLimit+120*sim.Nanosecond+1 {
		t.Fatalf("backlog %v exceeded limit+one-frame", l.PeakBacklog(0))
	}
}

func TestFlapSchedule(t *testing.T) {
	faults := Flap(100, 10, 5, 3)
	want := []LinkFault{
		{100, false}, {110, true},
		{115, false}, {125, true},
		{130, false}, {140, true},
	}
	if len(faults) != len(want) {
		t.Fatalf("%d events, want %d", len(faults), len(want))
	}
	for i, f := range faults {
		if f != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, f, want[i])
		}
	}
}

func TestScheduleLinkFaultsTiming(t *testing.T) {
	s, l, _, b := linkPair(t, Net100G)
	ScheduleLinkFaults(s, l, Flap(1*sim.Microsecond, 1*sim.Microsecond, 1*sim.Microsecond, 2))
	send := func(at sim.Time) {
		s.At(at, "tx", func() { l.Send(0, frameTo(macN(2), macN(1))) })
	}
	send(500 * sim.Nanosecond)  // up
	send(1500 * sim.Nanosecond) // down (cycle 1)
	send(2500 * sim.Nanosecond) // up
	send(3500 * sim.Nanosecond) // down (cycle 2)
	send(4500 * sim.Nanosecond) // up again, for good
	s.Run()
	if len(b.frames) != 3 || l.Dropped(0) != 2 {
		t.Fatalf("delivered %d dropped %d, want 3/2", len(b.frames), l.Dropped(0))
	}
	if !l.Up() {
		t.Fatal("flap schedule must end with the link up")
	}
}

func TestScheduleDrainWindow(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s)
	var hosts [2]*portRecorder
	var links [2]*Link
	for i := 0; i < 2; i++ {
		hosts[i] = &portRecorder{}
		links[i] = NewLink(s, Net100G)
		port := sw.AttachPort(links[i], 1)
		links[i].Attach(hosts[i], port)
	}
	ScheduleDrain(s, sw, 1*sim.Microsecond, 2*sim.Microsecond)
	for _, at := range []sim.Time{500 * sim.Nanosecond, 1500 * sim.Nanosecond, 2500 * sim.Nanosecond} {
		at := at
		s.At(at, "tx", func() { links[0].Send(0, frameTo(macN(2), macN(1))) })
	}
	s.Run()
	if len(hosts[1].frames) != 2 {
		t.Fatalf("delivered %d, want 2 (one eaten by the drain window)", len(hosts[1].frames))
	}
	if sw.Dropped != 1 {
		t.Fatalf("switch dropped %d, want 1", sw.Dropped)
	}
	if sw.Draining() {
		t.Fatal("drain window did not close")
	}
}

// TestOverlappingFlapWindows: two flap schedules against one link whose
// down windows overlap. The carrier is a boolean, so the last transition
// wins — the link is down from the first down edge to the last up edge
// of the overlapping pair — and the mid-overlap down edge must not
// double-purge or double-count an already-purged backlog.
func TestOverlappingFlapWindows(t *testing.T) {
	s, l, _, b := linkPair(t, Net100G)
	ScheduleLinkFaults(s, l, Flap(1*sim.Microsecond, 1*sim.Microsecond, 10*sim.Microsecond, 1))
	ScheduleLinkFaults(s, l, Flap(1500*sim.Nanosecond, 1*sim.Microsecond, 10*sim.Microsecond, 1))
	send := func(at sim.Time) {
		s.At(at, "tx", func() { l.Send(0, frameTo(macN(2), macN(1))) })
	}
	send(500 * sim.Nanosecond)  // up: delivered
	send(1200 * sim.Nanosecond) // inside window A: dropped
	send(1800 * sim.Nanosecond) // inside A∩B overlap: dropped
	send(2200 * sim.Nanosecond) // A's up edge raised carrier mid-window-B: delivered
	send(2700 * sim.Nanosecond) // after B's up edge: delivered
	s.Run()
	if len(b.frames) != 3 {
		t.Fatalf("delivered %d, want 3", len(b.frames))
	}
	if l.Dropped(0) != 2 {
		t.Fatalf("dropped %d, want 2", l.Dropped(0))
	}
	if !l.Up() {
		t.Fatal("link must end up after both schedules")
	}
}

// TestOverlappingDownEdgesPurgeOnce: a second down edge while the link
// is already down must not re-purge (the wasDown guard) — drops are
// counted exactly once per queued frame.
func TestOverlappingDownEdgesPurgeOnce(t *testing.T) {
	s, l, _, b := linkPair(t, Net100G)
	for i := 0; i < 8; i++ {
		f := make([]byte, 1500)
		dst, src := macN(2), macN(1)
		copy(f[0:6], dst[:])
		copy(f[6:12], src[:])
		l.Send(0, f)
	}
	s.At(60*sim.Nanosecond, "cutA", func() { l.SetUp(false) })
	s.At(70*sim.Nanosecond, "cutB", func() { l.SetUp(false) })
	s.Run()
	if l.Dropped(0) != 7 {
		t.Fatalf("dropped %d, want 7 (double cut must purge once)", l.Dropped(0))
	}
	if len(b.frames) != 1 {
		t.Fatalf("delivered %d, want 1", len(b.frames))
	}
}

// TestDrainDuringActiveFlap: a switch drain window overlapping a link
// flap. Frames lost to the downed link count on the link; frames that
// reach a draining switch count on the switch — the two fault layers
// keep separate books.
func TestDrainDuringActiveFlap(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s)
	var hosts [2]*portRecorder
	var links [2]*Link
	for i := 0; i < 2; i++ {
		hosts[i] = &portRecorder{}
		links[i] = NewLink(s, Net100G)
		port := sw.AttachPort(links[i], 1)
		links[i].Attach(hosts[i], port)
	}
	ScheduleLinkFaults(s, links[0], Flap(1*sim.Microsecond, 1*sim.Microsecond, 1*sim.Microsecond, 1))
	ScheduleDrain(s, sw, 1500*sim.Nanosecond, 3*sim.Microsecond)
	send := func(at sim.Time) {
		s.At(at, "tx", func() { links[0].Send(0, frameTo(macN(2), macN(1))) })
	}
	send(500 * sim.Nanosecond)  // link up, no drain: delivered
	send(1200 * sim.Nanosecond) // link down (drain soon after): link drop
	send(1800 * sim.Nanosecond) // link down AND drain active: link drop
	send(2100 * sim.Nanosecond) // link back up; arrives ~2755, drain active: switch drop
	send(3500 * sim.Nanosecond) // both clear by arrival: delivered
	s.Run()
	if len(hosts[1].frames) != 2 {
		t.Fatalf("delivered %d, want 2", len(hosts[1].frames))
	}
	if links[0].Dropped(0) != 2 {
		t.Fatalf("link dropped %d, want 2", links[0].Dropped(0))
	}
	if sw.Dropped != 1 {
		t.Fatalf("switch dropped %d, want 1", sw.Dropped)
	}
}

// TestFaultsOnZeroTrafficLink: a fault schedule against a link that
// never carries a frame must run to completion without counting
// anything — purge on an empty backlog is a no-op.
func TestFaultsOnZeroTrafficLink(t *testing.T) {
	s, l, _, b := linkPair(t, Net100G)
	ScheduleLinkFaults(s, l, Flap(1*sim.Microsecond, 2*sim.Microsecond, 1*sim.Microsecond, 3))
	s.Run()
	if len(b.frames) != 0 || l.DroppedTotal() != 0 || l.MarkedTotal() != 0 {
		t.Fatalf("zero-traffic link recorded frames=%d drops=%d marks=%d",
			len(b.frames), l.DroppedTotal(), l.MarkedTotal())
	}
	if !l.Up() {
		t.Fatal("schedules end up; link must have carrier")
	}
	if got, _ := l.Stats(0); got != 0 {
		t.Fatalf("zero-traffic link counted %d frames", got)
	}
}

// TestSwitchFloodNeverEchoesIngress is the regression test the issue
// asks for: on an FDB miss the flood must not echo the frame back out
// the ingress port, whether or not the source was already learned, and
// the destination counts as learned-behind-ingress must be dropped
// entirely.
func TestSwitchFloodNeverEchoesIngress(t *testing.T) {
	s, sw, hosts, links := swRig(t)
	// Fresh FDB: a -> unknown floods to b and c only.
	links[0].Send(0, frameTo(macN(7), macN(1)))
	s.Run()
	if len(hosts[0].frames) != 0 {
		t.Fatal("FDB-miss flood echoed out the ingress port")
	}
	// Source already learned, destination still unknown: same property.
	links[0].Send(0, frameTo(macN(8), macN(1)))
	s.Run()
	if len(hosts[0].frames) != 0 {
		t.Fatal("flood echoed after the source was learned")
	}
	if sw.Flooded != 2 {
		t.Fatalf("flooded %d, want 2", sw.Flooded)
	}
	// Destination learned behind the ingress port: dropped, not echoed,
	// and not counted as forwarded.
	links[0].Send(0, frameTo(macN(1), macN(1)))
	s.Run()
	if len(hosts[0].frames) != 0 || sw.Forwarded != 0 {
		t.Fatalf("hairpin escaped: %d frames, fwd=%d", len(hosts[0].frames), sw.Forwarded)
	}
}
