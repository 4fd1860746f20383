package nicdma

import (
	"testing"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

var (
	src = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}, Port: 1111}
	dst = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}, Port: 2222}
)

func frame(t *testing.T, payload []byte, srcPort uint16) []byte {
	t.Helper()
	s := src
	s.Port = srcPort
	f, err := wire.BuildUDP(s, dst, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRxDeliversToQueue(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	n.DeliverFrame(frame(t, []byte("hi"), 1111))
	s.Run()
	if n.Stats().RxFrames != 1 {
		t.Fatalf("rx frames %d", n.Stats().RxFrames)
	}
	d := n.Queue(0).Poll()
	if d == nil || string(d.Payload) != "hi" {
		t.Fatalf("polled %v", d)
	}
	if n.Queue(0).Poll() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestRxLatencyIncludesDMA(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	n := New(s, cfg)
	var at sim.Time
	n.DeliverFrame(frame(t, []byte("x"), 1))
	for s.Step() {
		if n.Stats().RxFrames == 1 && at == 0 {
			at = s.Now()
		}
	}
	want := cfg.NICProcess + cfg.Fabric.DMATransfer(wire.MinFrameLen) + cfg.Fabric.DMAWrite
	if at != want {
		t.Errorf("packet visible at %v, want %v", at, want)
	}
}

func TestRxBadFrameDropped(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	bad := frame(t, []byte("x"), 1)
	bad[20] ^= 0xff
	n.DeliverFrame(bad)
	s.Run()
	if n.Stats().RxBadFrames != 1 || n.Stats().RxFrames != 0 {
		t.Fatalf("stats %+v", n.Stats())
	}
}

func TestRSSSpreadsFlows(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.Queues = 4
	n := New(s, cfg)
	for p := uint16(1); p <= 64; p++ {
		n.DeliverFrame(frame(t, []byte("x"), p))
	}
	s.Run()
	nonEmpty := 0
	for i := 0; i < 4; i++ {
		if n.Queue(i).Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Errorf("RSS used only %d/4 queues for 64 flows", nonEmpty)
	}
}

func TestRSSSameFlowSameQueue(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.Queues = 8
	n := New(s, cfg)
	for i := 0; i < 10; i++ {
		n.DeliverFrame(frame(t, []byte("x"), 777))
	}
	s.Run()
	withFrames := 0
	for i := 0; i < 8; i++ {
		if n.Queue(i).Len() > 0 {
			withFrames++
			if n.Queue(i).Len() != 10 {
				t.Errorf("queue %d has %d frames", i, n.Queue(i).Len())
			}
		}
	}
	if withFrames != 1 {
		t.Errorf("one flow landed on %d queues", withFrames)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.RingSize = 4
	n := New(s, cfg)
	for i := 0; i < 10; i++ {
		n.DeliverFrame(frame(t, []byte("x"), 5))
	}
	s.Run()
	if n.Stats().RxDropped != 6 {
		t.Errorf("dropped %d, want 6", n.Stats().RxDropped)
	}
	if n.Queue(0).Len() != 4 {
		t.Errorf("ring holds %d", n.Queue(0).Len())
	}
}

func TestIRQRaisedOnArrival(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	n := New(s, cfg)
	var irqAt sim.Time
	q := n.Queue(0)
	q.OnIRQ = func(qq *RxQueue) { irqAt = s.Now() }
	q.EnableIRQ()
	n.DeliverFrame(frame(t, []byte("x"), 1))
	s.Run()
	if irqAt == 0 {
		t.Fatal("no IRQ")
	}
	want := cfg.NICProcess + cfg.Fabric.DMATransfer(wire.MinFrameLen) + cfg.Fabric.DMAWrite + cfg.Fabric.IRQLatency
	if irqAt != want {
		t.Errorf("IRQ at %v, want %v", irqAt, want)
	}
	if n.Stats().IRQs != 1 {
		t.Errorf("IRQs %d", n.Stats().IRQs)
	}
}

func TestIRQMaskedUntilReenabled(t *testing.T) {
	// NAPI: after one interrupt, further packets must not interrupt until
	// the driver re-enables.
	s := sim.New(1)
	n := New(s, DefaultConfig())
	irqs := 0
	q := n.Queue(0)
	q.OnIRQ = func(qq *RxQueue) { irqs++ }
	q.EnableIRQ()
	for i := 0; i < 5; i++ {
		n.DeliverFrame(frame(t, []byte("x"), 1))
	}
	s.Run()
	if irqs != 1 {
		t.Fatalf("%d IRQs before re-enable, want 1", irqs)
	}
	// Drain and re-enable: queue empty, no new IRQ.
	for q.Poll() != nil {
	}
	q.EnableIRQ()
	s.Run()
	if irqs != 1 {
		t.Fatalf("IRQ fired on empty queue")
	}
	// Re-enable with pending packets: immediate IRQ.
	n.DeliverFrame(frame(t, []byte("x"), 1))
	s.Run()
	if irqs != 2 {
		t.Fatalf("IRQ missing after re-enable: %d", irqs)
	}
}

func TestIRQDisabledForPolling(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	q := n.Queue(0)
	q.OnIRQ = func(qq *RxQueue) { t.Fatal("IRQ in poll mode") }
	q.EnableIRQ()
	q.DisableIRQ()
	n.DeliverFrame(frame(t, []byte("x"), 1))
	s.Run()
	if q.Len() != 1 {
		t.Fatal("packet not delivered in poll mode")
	}
}

func TestIRQCoalescing(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.IRQCoalesce = 50 * sim.Microsecond
	n := New(s, cfg)
	var irqTimes []sim.Time
	q := n.Queue(0)
	q.OnIRQ = func(qq *RxQueue) {
		irqTimes = append(irqTimes, s.Now())
		for qq.Poll() != nil {
		}
		qq.EnableIRQ()
	}
	q.EnableIRQ()
	// Two packets 5us apart: the second IRQ must be pushed past the window.
	n.DeliverFrame(frame(t, []byte("a"), 1))
	s.At(5*sim.Microsecond, "second", func() {
		n.DeliverFrame(frame(t, []byte("b"), 1))
	})
	s.Run()
	if len(irqTimes) != 2 {
		t.Fatalf("%d IRQs", len(irqTimes))
	}
	if gap := irqTimes[1] - irqTimes[0]; gap < cfg.IRQCoalesce {
		t.Errorf("IRQ gap %v below coalesce window %v", gap, cfg.IRQCoalesce)
	}
}

type portSink struct {
	frames int
	s      *sim.Sim
	at     sim.Time
}

func (p *portSink) DeliverFrame([]byte) { p.frames++; p.at = p.s.Now() }

func TestTransmit(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	n := New(s, cfg)
	l := fabric.NewLink(s, fabric.Net100G)
	sink := &portSink{s: s}
	l.Attach(n, sink)
	n.AttachLink(l, 0)

	f := frame(t, []byte("out"), 1)
	n.Transmit(f)
	s.Run()
	if sink.frames != 1 {
		t.Fatal("frame not transmitted")
	}
	if n.Stats().TxFrames != 1 {
		t.Error("tx not counted")
	}
	// Latency ≥ descriptor fetch + payload DMA + process + wire.
	min := cfg.Fabric.DMARead + cfg.Fabric.DMATransfer(len(f)) + cfg.NICProcess
	if sink.at < min {
		t.Errorf("delivered at %v, want >= %v", sink.at, min)
	}
}

func TestTransmitSerializesDMAEngine(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	l := fabric.NewLink(s, fabric.Net100G)
	sink := &portSink{s: s}
	l.Attach(n, sink)
	n.AttachLink(l, 0)

	big := frame(t, make([]byte, 1400), 1)
	n.Transmit(big)
	n.Transmit(big)
	s.Run()
	perFrame := fabric.PCIeX86.DMARead + fabric.PCIeX86.DMATransfer(len(big)) + n.Config().NICProcess
	if sink.at < 2*perFrame {
		t.Errorf("second frame at %v, want >= %v (TX engine must serialize)", sink.at, 2*perFrame)
	}
}

func TestTransmitNoLinkPanics(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	n.Transmit([]byte{1})
}

func TestNewPanics(t *testing.T) {
	s := sim.New(1)
	if catchPanic(func() { New(s, Config{Fabric: fabric.ECI, Queues: 1}) }) == "" {
		t.Error("non-DMA fabric accepted")
	}
	if catchPanic(func() { New(s, Config{Fabric: fabric.PCIeX86, Queues: 0}) }) == "" {
		t.Error("zero queues accepted")
	}
}

func catchPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = "p"
		}
	}()
	f()
	return ""
}

func TestEnzianSlowerThanX86(t *testing.T) {
	// Per-packet receive cost on the Enzian NIC must exceed x86 — the
	// premise of Fig. 2's Enzian-DMA vs x86-DMA gap.
	x86 := DefaultConfig()
	enz := EnzianConfig()
	costX86 := x86.NICProcess + x86.Fabric.DMATransfer(64) + x86.Fabric.DMAWrite + x86.Fabric.IRQLatency
	costEnz := enz.NICProcess + enz.Fabric.DMATransfer(64) + enz.Fabric.DMAWrite + enz.Fabric.IRQLatency
	if costEnz <= 2*costX86 {
		t.Errorf("Enzian per-packet %v vs x86 %v; expected >2x", costEnz, costX86)
	}
}

func TestDoorbellCost(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	if n.DoorbellCost() != fabric.PCIeX86.MMIOWrite {
		t.Error("doorbell cost mismatch")
	}
}

// TestFilterIPDropsForeignFrames pins the switched-fabric RX filter the
// cluster layer arms: frames for another host's IP are discarded before
// DMA; frames for the configured IP (or any frame when the filter is off)
// still land in a queue.
func TestFilterIPDropsForeignFrames(t *testing.T) {
	mk := func(filter wire.IP) *NIC {
		cfg := DefaultConfig()
		cfg.FilterIP = filter
		return New(sim.New(1), cfg)
	}
	// Filter armed with our own IP: accepted.
	n := mk(dst.IP)
	n.DeliverFrame(frame(t, []byte("mine"), 1))
	n.sim.Run()
	if n.Stats().RxFrames != 1 || n.Stats().RxFiltered != 0 {
		t.Fatalf("own frame filtered: %+v", n.Stats())
	}
	// Filter armed with a different IP: dropped, counted, not queued.
	n = mk(wire.IP{10, 0, 0, 99})
	n.DeliverFrame(frame(t, []byte("flooded"), 1))
	n.sim.Run()
	if st := n.Stats(); st.RxFiltered != 1 || st.RxFrames != 0 {
		t.Fatalf("foreign frame not filtered: %+v", st)
	}
	if n.Queue(0).Len() != 0 {
		t.Fatal("filtered frame reached a ring")
	}
	// Filter disabled: everything is accepted (legacy point-to-point
	// behavior).
	n = mk(wire.IP{})
	n.DeliverFrame(frame(t, []byte("any"), 1))
	n.sim.Run()
	if n.Stats().RxFrames != 1 {
		t.Fatal("unfiltered NIC dropped a frame")
	}
}

// TestDropsReturnFrames: with a pool armed, the NIC is the terminal
// consumer of every frame it drops — bad, filtered, ring-full at either
// stage, and offered toward a downed carrier — and returns each one,
// while the frames it queues stay intact.
func TestDropsReturnFrames(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.RingSize = 4
	cfg.FilterIP = dst.IP
	n := New(s, cfg)
	pool := new(wire.FramePool)
	n.Frames = pool
	build := func(to wire.Endpoint) []byte {
		f, err := pool.BuildUDP(src, to, 1, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	bad := build(dst)
	bad[20] ^= 0xff
	n.DeliverFrame(bad)
	foreign := dst
	foreign.IP = wire.IP{10, 0, 0, 99}
	n.DeliverFrame(build(foreign))
	for i := 0; i < 10; i++ {
		n.DeliverFrame(build(dst))
	}
	s.Run()
	st := n.Stats()
	if st.RxBadFrames != 1 || st.RxFiltered != 1 || st.RxDropped != 6 || st.RxFrames != 4 {
		t.Fatalf("stats %+v", st)
	}
	if pool.Puts != 8 {
		t.Fatalf("pool got %d frames back, want 8 drops", pool.Puts)
	}
	for d := n.Queue(0).Poll(); d != nil; d = n.Queue(0).Poll() {
		if string(d.Payload) != "x" {
			t.Fatalf("queued frame clobbered: payload %q", d.Payload)
		}
	}

	l := fabric.NewLink(s, fabric.Net100G)
	l.Attach(n, &portSink{s: s})
	n.AttachLink(l, 0)
	l.SetUp(false)
	n.Transmit(build(dst))
	if n.Stats().TxNoCarrier != 1 || pool.Puts != 9 {
		t.Fatalf("no-carrier drop: stats %+v, puts %d", n.Stats(), pool.Puts)
	}
}
