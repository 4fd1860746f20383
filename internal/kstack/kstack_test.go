package kstack

import (
	"testing"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

var (
	serverEP = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}, Port: 0}
	clientEP = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}, Port: 5555}
)

// testClient is a raw FramePort peer that sends RPC requests and records
// response arrival times.
type testClient struct {
	s         *sim.Sim
	link      *fabric.Link
	side      int
	sentAt    map[uint64]sim.Time
	rtts      map[uint64]sim.Time
	responses []*rpc.Message
}

func newTestClient(s *sim.Sim, link *fabric.Link, side int) *testClient {
	return &testClient{s: s, link: link, side: side,
		sentAt: map[uint64]sim.Time{}, rtts: map[uint64]sim.Time{}}
}

func (c *testClient) DeliverFrame(frame []byte) {
	d, err := wire.ParseUDP(frame)
	if err != nil {
		return
	}
	m, err := rpc.Decode(d.Payload)
	if err != nil {
		return
	}
	c.responses = append(c.responses, m)
	if t0, ok := c.sentAt[m.ID]; ok {
		c.rtts[m.ID] = c.s.Now() - t0
	}
}

func (c *testClient) send(t *testing.T, dstPort uint16, service uint32, method uint16, id uint64, body []byte) {
	t.Helper()
	req := rpc.EncodeRequest(service, method, id, 0, body)
	dst := serverEP
	dst.Port = dstPort
	frame, err := wire.BuildUDP(clientEP, dst, uint16(id), req)
	if err != nil {
		t.Fatal(err)
	}
	c.sentAt[id] = c.s.Now()
	c.link.Send(c.side, frame)
}

// echoServer builds a 1-core server host with an echo service and returns
// the pieces.
func echoServer(t *testing.T, nCores int, serviceTime sim.Time) (*sim.Sim, *kernel.Kernel, *Stack, *testClient) {
	t.Helper()
	s := sim.New(42)
	k := kernel.New(s, nCores, 2.5, kernel.DefaultCosts())
	nic := nicdma.New(s, nicdma.DefaultConfig())
	link := fabric.NewLink(s, fabric.Net100G)
	client := newTestClient(s, link, 0)
	link.Attach(client, nic)
	nic.AttachLink(link, 1)
	st := New(k, nic, serverEP, DefaultCosts())

	reg := rpc.NewRegistry()
	reg.Register(&rpc.ServiceDesc{ID: 1, Name: "echo", Methods: []rpc.MethodDesc{{
		ID: 1, Name: "echo",
		Handler: func(req []byte) ([]byte, sim.Time) { return req, serviceTime },
	}}})
	sock := st.Bind(9000)
	proc := k.NewProcess("echo")
	k.Spawn(proc, "echo-server", ServeLoop(ServerConfig{
		Socket: sock, Registry: reg, Codec: rpc.DefaultCostModel(),
	}))
	return s, k, st, client
}

func TestEchoRoundTrip(t *testing.T) {
	s, _, _, client := echoServer(t, 1, 0)
	client.send(t, 9000, 1, 1, 100, []byte("ping"))
	s.RunUntil(sim.Second)
	if len(client.responses) != 1 {
		t.Fatalf("%d responses", len(client.responses))
	}
	r := client.responses[0]
	if r.ID != 100 || r.Status != rpc.StatusOK || string(r.Body) != "ping" {
		t.Fatalf("response %v body=%q", r, r.Body)
	}
	rtt := client.rtts[100]
	// Plausibility: a kernel-path RTT is tens of microseconds, not
	// hundreds and not single digits.
	if rtt < 5*sim.Microsecond || rtt > 100*sim.Microsecond {
		t.Errorf("RTT %v implausible for kernel path", rtt)
	}
}

func TestManyRequestsAllServed(t *testing.T) {
	s, _, st, client := echoServer(t, 2, sim.Microsecond)
	const n = 50
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		at := sim.Time(i) * 20 * sim.Microsecond
		s.At(at, "send", func() {
			client.send(t, 9000, 1, 1, id, []byte("x"))
		})
	}
	s.RunUntil(sim.Second)
	if len(client.responses) != n {
		t.Fatalf("%d/%d responses", len(client.responses), n)
	}
	if st.SoftirqPackets != n {
		t.Errorf("softirq processed %d packets", st.SoftirqPackets)
	}
}

func TestUnknownPortDropped(t *testing.T) {
	s, _, st, client := echoServer(t, 1, 0)
	client.send(t, 9999, 1, 1, 7, []byte("x"))
	s.RunUntil(10 * sim.Millisecond)
	if len(client.responses) != 0 {
		t.Fatal("response from unbound port")
	}
	if st.NoSocketDrops != 1 {
		t.Errorf("drops %d", st.NoSocketDrops)
	}
}

func TestUnknownMethodStatus(t *testing.T) {
	s, _, _, client := echoServer(t, 1, 0)
	client.send(t, 9000, 1, 42, 8, []byte("x"))
	s.RunUntil(10 * sim.Millisecond)
	if len(client.responses) != 1 {
		t.Fatal("no response for bad method")
	}
	if client.responses[0].Status != rpc.StatusNoSuchMethod {
		t.Errorf("status %d", client.responses[0].Status)
	}
}

func TestMalformedRPCIgnoredServerKeepsServing(t *testing.T) {
	s, _, _, client := echoServer(t, 1, 0)
	// Garbage payload.
	frame, _ := wire.BuildUDP(clientEP, wire.Endpoint{MAC: serverEP.MAC, IP: serverEP.IP, Port: 9000}, 1, []byte("garbage"))
	client.link.Send(client.side, frame)
	s.RunUntil(10 * sim.Millisecond)
	client.send(t, 9000, 1, 1, 9, []byte("ok"))
	s.RunUntil(sim.Second)
	if len(client.responses) != 1 || client.responses[0].ID != 9 {
		t.Fatal("server did not survive malformed RPC")
	}
}

func TestDoubleBindPanics(t *testing.T) {
	s := sim.New(1)
	k := kernel.New(s, 1, 2.5, kernel.DefaultCosts())
	nic := nicdma.New(s, nicdma.DefaultConfig())
	st := New(k, nic, serverEP, DefaultCosts())
	st.Bind(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	st.Bind(1)
}

func TestRTTBreakdownScalesWithServiceTime(t *testing.T) {
	rtt := func(service sim.Time) sim.Time {
		s, _, _, client := echoServer(t, 1, service)
		client.send(t, 9000, 1, 1, 1, []byte("x"))
		s.RunUntil(sim.Second)
		return client.rtts[1]
	}
	fast := rtt(0)
	slow := rtt(10 * sim.Microsecond)
	diff := slow - fast
	if diff < 9*sim.Microsecond || diff > 11*sim.Microsecond {
		t.Errorf("RTT delta %v for 10us extra service time", diff)
	}
}

func TestBlockedServerWakesOnPacket(t *testing.T) {
	// The server thread must be Blocked (core idle) before the packet and
	// running after — the kernel path's strength vs bypass: no spinning.
	s, k, _, client := echoServer(t, 1, 0)
	s.RunUntil(10 * sim.Millisecond)
	if k.CPU(0).State().String() != "idle" {
		t.Fatalf("core not idle while waiting: %v", k.CPU(0).State())
	}
	spinBefore := k.CPU(0).Residency(4 /* cpu.Stall */)
	client.send(t, 9000, 1, 1, 3, []byte("x"))
	s.RunUntil(sim.Second)
	if len(client.responses) != 1 {
		t.Fatal("no response")
	}
	_ = spinBefore
}

func TestLargePayloadCopiesCostMore(t *testing.T) {
	rtt := func(n int) sim.Time {
		s, _, _, client := echoServer(t, 1, 0)
		client.send(t, 9000, 1, 1, 1, make([]byte, n))
		s.RunUntil(sim.Second)
		return client.rtts[1]
	}
	small := rtt(16)
	big := rtt(1200)
	if big <= small {
		t.Errorf("1200B RTT %v not above 16B RTT %v", big, small)
	}
}

// TestServerReturnsFrames: with a pool armed on the NIC, the server
// builds its responses from the pool and returns every request frame it
// terminally consumes — served, sent to an unbound port, or malformed.
func TestServerReturnsFrames(t *testing.T) {
	s, _, st, client := echoServer(t, 1, 0)
	pool := new(wire.FramePool)
	st.NIC.Frames = pool
	send := func(port uint16, id uint64, payload []byte) {
		dst := serverEP
		dst.Port = port
		f, err := pool.BuildUDP(clientEP, dst, uint16(id), payload)
		if err != nil {
			t.Fatal(err)
		}
		client.link.Send(client.side, f)
	}
	send(9000, 1, rpc.EncodeRequest(1, 1, 1, 0, []byte("ping")))
	send(9999, 2, rpc.EncodeRequest(1, 1, 2, 0, []byte("lost")))
	send(9000, 3, []byte("garbage"))
	s.RunUntil(10 * sim.Millisecond)
	if len(client.responses) != 1 || string(client.responses[0].Body) != "ping" {
		t.Fatalf("responses %v", client.responses)
	}
	if st.NoSocketDrops != 1 {
		t.Fatalf("no-socket drops %d", st.NoSocketDrops)
	}
	if pool.Gets != 4 || pool.Puts != 3 {
		t.Fatalf("pool gets=%d puts=%d, want 3 requests + 1 response built, 3 requests returned", pool.Gets, pool.Puts)
	}
	// The next request and its response recycle returned buffers.
	hits := pool.Hits
	send(9000, 4, rpc.EncodeRequest(1, 1, 4, 0, []byte("again")))
	s.RunUntil(20 * sim.Millisecond)
	if len(client.responses) != 2 || string(client.responses[1].Body) != "again" || pool.Hits != hits+2 {
		t.Fatalf("second round: %d responses, hits %d -> %d", len(client.responses), hits, pool.Hits)
	}
	// A burst past a one-deep socket buffer overflows it; every
	// overflowed request frame comes back too.
	st.sockets[9000].queue.MaxDepth = 1
	const burst = 16
	for i := 0; i < burst; i++ {
		send(9000, uint64(10+i), rpc.EncodeRequest(1, 1, uint64(10+i), 0, []byte("burst")))
	}
	s.RunUntil(30 * sim.Millisecond)
	dropped := int(st.sockets[9000].queue.Dropped)
	if dropped == 0 {
		t.Fatal("burst did not overflow the socket buffer")
	}
	served := len(client.responses) - 2
	if served+dropped != burst {
		t.Fatalf("burst: %d served + %d dropped, want %d", served, dropped, burst)
	}
	// 4+16 requests and 2+served responses built; every request returned.
	if pool.Gets != uint64(4+burst+2+served) || pool.Puts != uint64(3+1+burst) {
		t.Fatalf("after burst: pool gets=%d puts=%d (served %d, dropped %d)", pool.Gets, pool.Puts, served, dropped)
	}
}
