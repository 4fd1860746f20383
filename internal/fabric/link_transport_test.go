package fabric

import (
	"testing"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

var (
	txEP = wire.Endpoint{MAC: macN(1), IP: wire.IP{10, 0, 0, 1}, Port: 4000}
	rxEP = wire.Endpoint{MAC: macN(2), IP: wire.IP{10, 0, 0, 2}, Port: 9000}
)

// txUDPFrame builds a parseable UDP frame of roughly n bytes on the wire.
func txUDPFrame(t *testing.T, n int) []byte {
	t.Helper()
	f, err := wire.BuildUDP(txEP, rxEP, 1, make([]byte, n-wire.HeadersLen))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLinkDownPurgesQueuedBacklog is the fault-boundary accounting
// regression test: a carrier cut mid-backlog must drop the frames whose
// serialization had not started (counting them), keep the frame whose
// bits were already leaving, and rewind the transmitter so the link is
// usable as soon as carrier returns.
func TestLinkDownPurgesQueuedBacklog(t *testing.T) {
	s, l, _, b := linkPair(t, Net100G)
	// 8 × 1500 B at 12.5 B/ns: frame i starts serializing at 120i ns.
	for i := 0; i < 8; i++ {
		l.Send(0, txUDPFrame(t, 1500))
	}
	s.At(60*sim.Nanosecond, "cut", func() { l.SetUp(false) }) // mid-frame-0
	s.At(100*sim.Nanosecond, "up", func() { l.SetUp(true) })
	s.At(200*sim.Nanosecond, "tx", func() { l.Send(0, txUDPFrame(t, 1500)) })
	s.Run()
	// Frame 0 survives the cut (serialization underway); frames 1..7 are
	// purged; the post-recovery frame must not queue behind phantom
	// serialization of the purged backlog.
	if len(b.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2 (head of backlog + post-recovery)", len(b.frames))
	}
	if l.Dropped(0) != 7 {
		t.Fatalf("dropped %d, want 7 purged frames", l.Dropped(0))
	}
	// Post-recovery frame: starts at max(200, rewound txIdle=120) = 200,
	// arrives 200 + 120 (ser) + 650 (prop+switch) = 970 ns.
	if got := s.Now(); got != 970*sim.Nanosecond {
		t.Fatalf("last delivery at %v, want 970ns (txIdle not rewound?)", got)
	}
}

// TestLinkDownKeepsInterSwitchBacklog: a carrier cut purges a machine
// access link's queued backlog (TestLinkDownPurgesQueuedBacklog) but not
// an inter-switch link's — every frame queued on the uplink before the
// cut still reaches its destination, and none counts as dropped.
func TestLinkDownKeepsInterSwitchBacklog(t *testing.T) {
	s, topo, hosts, _ := spineLeafRig(t, 1, 1)
	up := topo.Uplink(0, 0)
	toC := wire.Endpoint{MAC: macN(3), IP: wire.IP{10, 0, 0, 3}, Port: 9000}
	for i := 0; i < 4; i++ {
		f, err := wire.BuildUDP(txEP, toC, 1, make([]byte, 1500-wire.HeadersLen))
		if err != nil {
			t.Fatal(err)
		}
		up.Send(0, f) // leaf 0 -> spine -> leaf 1 -> c
	}
	s.At(60*sim.Nanosecond, "cut", func() { up.SetUp(false) }) // mid-frame-0
	s.Run()
	if got := len(hosts[2].frames); got != 4 {
		t.Fatalf("inter-switch link delivered %d frames, want all 4 (backlog kept at the cut)", got)
	}
	if up.Dropped(0) != 0 {
		t.Fatalf("inter-switch link counted %d purge drops, want 0", up.Dropped(0))
	}
}

func TestECNThresholdMarksBackloggedFrames(t *testing.T) {
	params := Net100G
	params.ECNThreshold = 100 * sim.Nanosecond
	s, l, _, b := linkPair(t, params)
	// Back-to-back 1500 B frames wait 0, 120, 240, ... ns: every frame
	// after the first crosses the 100 ns threshold.
	for i := 0; i < 5; i++ {
		l.Send(0, txUDPFrame(t, 1500))
	}
	s.Run()
	if len(b.frames) != 5 {
		t.Fatalf("delivered %d, want 5", len(b.frames))
	}
	if l.Marked(0) != 4 || l.MarkedTotal() != 4 {
		t.Fatalf("marked %d/%d, want 4/4", l.Marked(0), l.MarkedTotal())
	}
	for i, f := range b.frames {
		d, err := wire.ParseUDP(f)
		if err != nil {
			t.Fatalf("frame %d unparseable after marking: %v", i, err)
		}
		if wantCE := i > 0; wire.IsCE(d.IP.TOS) != wantCE {
			t.Fatalf("frame %d CE=%v, want %v", i, !wantCE, wantCE)
		}
	}
}

func TestECNZeroThresholdNeverMarks(t *testing.T) {
	s, l, _, b := linkPair(t, Net100G)
	for i := 0; i < 5; i++ {
		l.Send(0, txUDPFrame(t, 1500))
	}
	s.Run()
	if l.MarkedTotal() != 0 {
		t.Fatalf("marked %d with ECN disabled", l.MarkedTotal())
	}
	for i, f := range b.frames {
		d, err := wire.ParseUDP(f)
		if err != nil {
			t.Fatal(err)
		}
		if d.IP.TOS != 0 {
			t.Fatalf("frame %d TOS %#02x with ECN disabled", i, d.IP.TOS)
		}
	}
}

func TestSendTapConsumesAndInjectBypasses(t *testing.T) {
	s, l, _, b := linkPair(t, Net100G)
	var seen int
	consume := true
	l.SetTap(0, func(f []byte) bool {
		seen++
		return !consume
	})
	l.Send(0, txUDPFrame(t, 200)) // consumed by the tap
	consume = false
	l.Send(0, txUDPFrame(t, 200)) // passes through
	l.Inject(0, txUDPFrame(t, 200))
	s.Run()
	if seen != 2 {
		t.Fatalf("tap saw %d frames, want 2 (Inject must bypass it)", seen)
	}
	if len(b.frames) != 2 {
		t.Fatalf("delivered %d, want 2 (one consumed)", len(b.frames))
	}
	frames, _ := l.Stats(0)
	if frames != 2 {
		t.Fatalf("link counted %d frames, want 2 (consumed frame never reached the wire)", frames)
	}
	l.SetTap(0, nil)
	l.Send(0, txUDPFrame(t, 200))
	s.Run()
	if len(b.frames) != 3 {
		t.Fatal("nil tap must restore plain Send")
	}
}

// TestSendTapSeesFramesOnDownedLink: the tap runs before the carrier
// check, so a transport records its sends (and can arm timeouts) even
// when the frame is about to be dropped by a downed link.
func TestSendTapSeesFramesOnDownedLink(t *testing.T) {
	s, l, _, b := linkPair(t, Net100G)
	var seen int
	l.SetTap(0, func(f []byte) bool { seen++; return true })
	l.SetUp(false)
	l.Send(0, txUDPFrame(t, 200))
	s.Run()
	if seen != 1 {
		t.Fatal("tap must see frames offered to a downed link")
	}
	if len(b.frames) != 0 || l.Dropped(0) != 1 {
		t.Fatalf("downed link delivered %d dropped %d, want 0/1", len(b.frames), l.Dropped(0))
	}
}
