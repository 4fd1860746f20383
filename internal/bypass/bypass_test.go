package bypass

import (
	"testing"

	"lauberhorn/internal/cpu"
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

var (
	serverEP = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}, Port: 9000}
	clientEP = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}, Port: 5555}
)

type testClient struct {
	s      *sim.Sim
	link   *fabric.Link
	side   int
	sentAt map[uint64]sim.Time
	rtts   map[uint64]sim.Time
	resps  []*rpc.Message
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
	c.resps = append(c.resps, m)
	if t0, ok := c.sentAt[m.ID]; ok {
		c.rtts[m.ID] = c.s.Now() - t0
	}
}

func (c *testClient) send(t *testing.T, id uint64, body []byte) {
	t.Helper()
	req := rpc.EncodeRequest(1, 1, id, 0, body)
	frame, err := wire.BuildUDP(clientEP, serverEP, uint16(id), req)
	if err != nil {
		t.Fatal(err)
	}
	c.sentAt[id] = c.s.Now()
	c.link.Send(c.side, frame)
}

func rig(t *testing.T, serviceTime sim.Time) (*sim.Sim, *kernel.Kernel, *Worker, *testClient) {
	t.Helper()
	s := sim.New(7)
	k := kernel.New(s, 1, 2.5, kernel.DefaultCosts())
	nic := nicdma.New(s, nicdma.DefaultConfig())
	link := fabric.NewLink(s, fabric.Net100G)
	client := &testClient{s: s, link: link, sentAt: map[uint64]sim.Time{}, rtts: map[uint64]sim.Time{}}
	link.Attach(client, nic)
	nic.AttachLink(link, 1)

	reg := rpc.NewRegistry()
	reg.Register(&rpc.ServiceDesc{ID: 1, Name: "echo", Methods: []rpc.MethodDesc{{
		ID: 1, Name: "echo",
		Handler: func(req []byte) ([]byte, sim.Time) { return req, serviceTime },
	}}})
	w := NewWorker(WorkerConfig{
		Queue: nic.Queue(0), NIC: nic, Local: serverEP,
		Registry: reg, Codec: rpc.DefaultCostModel(), Costs: DefaultCosts(),
	})
	proc := k.NewProcess("echo")
	k.SpawnPinned(proc, "bypass-worker", 0, w.Loop)
	return s, k, w, client
}

func TestEchoRoundTrip(t *testing.T) {
	s, _, w, client := rig(t, 0)
	client.send(t, 1, []byte("ping"))
	s.RunUntil(sim.Second)
	if len(client.resps) != 1 {
		t.Fatalf("%d responses", len(client.resps))
	}
	if string(client.resps[0].Body) != "ping" {
		t.Fatalf("body %q", client.resps[0].Body)
	}
	if w.Stats().Served != 1 {
		t.Error("served counter")
	}
	rtt := client.rtts[1]
	// Bypass must be well under the kernel path's ~12us.
	if rtt > 10*sim.Microsecond || rtt < 2*sim.Microsecond {
		t.Errorf("bypass RTT %v implausible", rtt)
	}
}

func TestBypassFasterThanPlausibleKernelPath(t *testing.T) {
	s, _, _, client := rig(t, 0)
	client.send(t, 1, make([]byte, 40))
	s.RunUntil(sim.Second)
	if rtt := client.rtts[1]; rtt >= 12*sim.Microsecond {
		t.Errorf("bypass RTT %v not better than kernel-path ballpark", rtt)
	}
}

func TestIdleWorkerSpins(t *testing.T) {
	s, k, _, _ := rig(t, 0)
	s.RunUntil(10 * sim.Millisecond)
	c := k.CPU(0)
	if c.State() != cpu.Spin {
		t.Fatalf("idle bypass core in %v, want spin", c.State())
	}
	// Nearly all time since boot must be Spin.
	if c.Residency(cpu.Spin) < 9*sim.Millisecond {
		t.Errorf("spin residency %v over 10ms idle", c.Residency(cpu.Spin))
	}
	if c.Residency(cpu.Idle) > sim.Millisecond {
		t.Errorf("idle residency %v; bypass never sleeps", c.Residency(cpu.Idle))
	}
}

func TestBackToBackRequests(t *testing.T) {
	s, _, w, client := rig(t, sim.Microsecond)
	const n = 32
	for i := 0; i < n; i++ {
		client.send(t, uint64(i+1), []byte("x"))
	}
	s.RunUntil(sim.Second)
	if len(client.resps) != n {
		t.Fatalf("%d/%d responses", len(client.resps), n)
	}
	if w.Stats().Served != n {
		t.Errorf("served %d", w.Stats().Served)
	}
}

func TestRunToCompletionOrdering(t *testing.T) {
	s, _, _, client := rig(t, 5*sim.Microsecond)
	for i := 0; i < 5; i++ {
		client.send(t, uint64(i+1), []byte("x"))
	}
	s.RunUntil(sim.Second)
	for i, m := range client.resps {
		if m.ID != uint64(i+1) {
			t.Fatalf("responses out of order: %v at %d", m.ID, i)
		}
	}
}

func TestBadRPCCounted(t *testing.T) {
	s, _, w, client := rig(t, 0)
	frame, _ := wire.BuildUDP(clientEP, serverEP, 1, []byte("not-rpc"))
	client.link.Send(0, frame)
	s.RunUntil(10 * sim.Millisecond)
	if w.Stats().BadRPC != 1 {
		t.Errorf("bad RPC count %d", w.Stats().BadRPC)
	}
	// Still serves afterwards.
	client.send(t, 2, []byte("ok"))
	s.RunUntil(sim.Second)
	if len(client.resps) != 1 {
		t.Fatal("worker died after bad RPC")
	}
}

func TestNoMethodStatus(t *testing.T) {
	s, _, w, client := rig(t, 0)
	req := rpc.EncodeRequest(1, 99, 5, 0, nil)
	frame, _ := wire.BuildUDP(clientEP, serverEP, 1, req)
	client.sentAt[5] = s.Now()
	client.link.Send(0, frame)
	s.RunUntil(sim.Second)
	if len(client.resps) != 1 || client.resps[0].Status != rpc.StatusNoSuchMethod {
		t.Fatal("NoSuchMethod response missing")
	}
	if w.Stats().NoMethod != 1 {
		t.Error("NoMethod counter")
	}
}

func TestZeroSyscallsOnDataPath(t *testing.T) {
	s, k, _, client := rig(t, 0)
	for i := 0; i < 10; i++ {
		client.send(t, uint64(i+1), []byte("x"))
	}
	s.RunUntil(sim.Second)
	if k.Stats().Syscalls != 0 {
		t.Errorf("bypass data path made %d syscalls", k.Stats().Syscalls)
	}
}

func TestOversubscribedWorkersShareCore(t *testing.T) {
	// Two workers (two services, two queues) pinned to one core must
	// time-share via the kernel quantum — the flexibility cliff the paper
	// describes.
	s := sim.New(7)
	k := kernel.New(s, 1, 2.5, kernel.DefaultCosts())
	k.Costs.Quantum = 100 * sim.Microsecond
	cfg := nicdma.DefaultConfig()
	cfg.Queues = 2
	nic := nicdma.New(s, cfg)
	link := fabric.NewLink(s, fabric.Net100G)
	client := &testClient{s: s, link: link, sentAt: map[uint64]sim.Time{}, rtts: map[uint64]sim.Time{}}
	link.Attach(client, nic)
	nic.AttachLink(link, 1)

	reg := rpc.NewRegistry()
	reg.Register(&rpc.ServiceDesc{ID: 1, Name: "s1", Methods: []rpc.MethodDesc{{
		ID: 1, Handler: func(req []byte) ([]byte, sim.Time) { return req, 0 },
	}}})
	served := [2]int{}
	for qi := 0; qi < 2; qi++ {
		qi := qi
		w := NewWorker(WorkerConfig{
			Queue: nic.Queue(qi), NIC: nic, Local: serverEP,
			Registry: reg, Codec: rpc.DefaultCostModel(), Costs: DefaultCosts(),
			OnServed: func(m *rpc.Message) { served[qi]++ },
		})
		k.SpawnPinned(k.NewProcess("svc"), "w", 0, w.Loop)
	}
	// Find source ports that RSS-hash to each queue.
	ports := [2]uint16{}
	for p := uint16(1000); p < 1100 && (ports[0] == 0 || ports[1] == 0); p++ {
		fl := wire.Flow{SrcIP: clientEP.IP, DstIP: serverEP.IP, SrcPort: p, DstPort: serverEP.Port}
		q := int(fl.Hash()) % 2
		if ports[q] == 0 {
			ports[q] = p
		}
	}
	sendOn := func(port uint16, id uint64) {
		req := rpc.EncodeRequest(1, 1, id, 0, []byte("x"))
		src := clientEP
		src.Port = port
		frame, _ := wire.BuildUDP(src, serverEP, uint16(id), req)
		client.sentAt[id] = s.Now()
		client.link.Send(0, frame)
	}
	sendOn(ports[0], 1)
	sendOn(ports[1], 2)
	s.RunUntil(2 * sim.Second)
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("served %v; oversubscribed workers starved", served)
	}
	// The second service's request had to wait out a quantum switch, so
	// its latency must be far worse than the first's.
	if client.rtts[2] < 10*client.rtts[1] && client.rtts[1] < 10*client.rtts[2] {
		t.Errorf("rtts %v vs %v: expected one to wait a quantum", client.rtts[1], client.rtts[2])
	}
}

// TestWorkerReturnsFrames: with a pool armed on the NIC, the worker
// builds responses from it and returns each request frame it consumes,
// served or malformed, after the response has left.
func TestWorkerReturnsFrames(t *testing.T) {
	s, _, w, client := rig(t, 0)
	pool := new(wire.FramePool)
	w.cfg.NIC.Frames = pool
	for id, payload := range [][]byte{rpc.EncodeRequest(1, 1, 1, 0, []byte("ping")), []byte("garbage")} {
		f, err := pool.BuildUDP(clientEP, serverEP, uint16(id), payload)
		if err != nil {
			t.Fatal(err)
		}
		client.link.Send(client.side, f)
	}
	s.RunUntil(10 * sim.Millisecond)
	if len(client.resps) != 1 || string(client.resps[0].Body) != "ping" {
		t.Fatalf("responses %v", client.resps)
	}
	if st := w.Stats(); st.Served != 1 || st.BadRPC != 1 {
		t.Fatalf("stats %+v", st)
	}
	if pool.Gets != 3 || pool.Puts != 2 {
		t.Fatalf("pool gets=%d puts=%d, want 2 requests + 1 response built, 2 requests returned", pool.Gets, pool.Puts)
	}
}
