package fabric

import (
	"bytes"
	"testing"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// poolFrame builds a 1500 B frame to dst from pool.
func poolFrame(t *testing.T, pool *wire.FramePool, dst, src wire.MAC) []byte {
	t.Helper()
	f, err := pool.BuildUDP(wire.Endpoint{MAC: src}, wire.Endpoint{MAC: dst}, 1, make([]byte, 1500-wire.HeadersLen))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLinkDropsReturnFrames: a link is the terminal consumer of every
// frame it drops — tail drops, frames purged from the queue by a
// carrier cut, and frames offered while down — and returns each to the
// sending side's pool, leaving delivered frames intact.
func TestLinkDropsReturnFrames(t *testing.T) {
	params := Net100G
	params.QueueLimit = 100 * sim.Nanosecond
	s, l, _, b := linkPair(t, params)
	pool := new(wire.FramePool)
	l.SetPool(pool)
	for i := 0; i < 8; i++ { // a saturating burst: tail drops
		l.Send(0, poolFrame(t, pool, macN(2), macN(1)))
	}
	s.Run()
	tail := l.Dropped(0)
	if tail == 0 || pool.Puts != tail {
		t.Fatalf("tail drops %d, frames returned %d", tail, pool.Puts)
	}
	// Queue two frames and cut the carrier while the first serializes,
	// purging the second; then offer one more frame to the dead link.
	for i := 0; i < 2; i++ {
		l.Send(0, poolFrame(t, pool, macN(2), macN(1)))
	}
	l.SetUp(false)
	l.Send(0, poolFrame(t, pool, macN(2), macN(1)))
	s.Run()
	if l.Dropped(0) != tail+2 || pool.Puts != l.Dropped(0) {
		t.Fatalf("purge + carrier drops: dropped %d, returned %d", l.Dropped(0), pool.Puts)
	}
	for _, f := range b.frames {
		if d, err := wire.ParseUDP(f); err != nil || d.Eth.Dst != macN(2) {
			t.Fatalf("delivered frame clobbered: %v", err)
		}
	}
}

// TestSwitchReturnsDropsAndClonesFloods: with a pool armed the switch
// returns what it drops (drain, hairpin, no live route) and floods a
// broadcast as one buffer per egress port, so no two consumers share a
// frame.
func TestSwitchReturnsDropsAndClonesFloods(t *testing.T) {
	s, sw, hosts, links := swRig(t)
	pool := new(wire.FramePool)
	sw.SetPool(pool)
	for _, l := range links {
		l.SetPool(pool)
	}

	bcast := poolFrame(t, pool, wire.BroadcastMAC, macN(1))
	want := append([]byte(nil), bcast...)
	links[0].Send(0, bcast)
	s.Run()
	fb, fc := hosts[1].frames, hosts[2].frames
	if len(fb) != 1 || len(fc) != 1 || &fb[0][0] == &fc[0][0] {
		t.Fatalf("flood: b=%d c=%d frames, shared buffer=%v", len(fb), len(fc), len(fb) == 1 && len(fc) == 1 && &fb[0][0] == &fc[0][0])
	}
	if !bytes.Equal(fb[0], want) || !bytes.Equal(fc[0], want) {
		t.Fatal("flooded copies differ from the original")
	}
	if pool.Gets != 2 {
		t.Fatalf("pool gets %d, want the frame plus one clone", pool.Gets)
	}

	// Hairpin: a's MAC is learned on port 0, so a frame from port 0 to a
	// is dropped at the switch.
	links[0].Send(0, poolFrame(t, pool, macN(1), macN(1)))
	s.Run()
	if pool.Puts != 1 {
		t.Fatalf("hairpin drop returned %d frames", pool.Puts)
	}
	sw.SetDrain(true)
	links[1].Send(0, poolFrame(t, pool, macN(1), macN(2)))
	s.Run()
	sw.SetDrain(false)
	if sw.Dropped != 1 || pool.Puts != 2 {
		t.Fatalf("drain drop: dropped %d, returned %d", sw.Dropped, pool.Puts)
	}
	// Routed with its only uplink down: unknown unicast has no route.
	sw.SetUplinks([]int{2}, 1)
	links[2].SetUp(false)
	links[0].Send(0, poolFrame(t, pool, macN(9), macN(1)))
	s.Run()
	if sw.Dropped != 2 || pool.Puts != 3 {
		t.Fatalf("no-route drop: dropped %d, returned %d", sw.Dropped, pool.Puts)
	}
}
