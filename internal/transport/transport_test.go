package transport

import (
	"testing"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

var (
	clientEP = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}, Port: 10001}
	serverEP = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}, Port: 9000}
)

// recPort records delivered frames (copies, since injected frames may
// be pooled buffers).
type recPort struct {
	frames [][]byte
}

func (p *recPort) DeliverFrame(f []byte) {
	c := make([]byte, len(f))
	copy(c, f)
	p.frames = append(p.frames, c)
}

// responder is the server-side inner port: every request is served
// immediately with a same-ID response sent back over the link.
type responder struct {
	l      *fabric.Link
	served int
}

func (r *responder) DeliverFrame(f []byte) {
	d, err := wire.ParseUDP(f)
	if err != nil {
		return
	}
	m, err := rpc.Decode(d.Payload)
	if err != nil || m.Kind != rpc.KindRequest {
		return
	}
	r.served++
	body := rpc.EncodeResponse(m.Service, m.Method, m.ID, rpc.StatusOK, nil)
	src := wire.Endpoint{MAC: d.Eth.Dst, IP: d.IP.Dst, Port: d.UDP.DstPort}
	dst := wire.Endpoint{MAC: d.Eth.Src, IP: d.IP.Src, Port: d.UDP.SrcPort}
	resp, err := wire.BuildUDP(src, dst, uint16(m.ID), body)
	if err != nil {
		panic(err)
	}
	r.l.Send(1, resp)
}

// rig wires a client transport and a server transport across one link:
// side 0 is the requester (inner port = recorder receiving responses),
// side 1 is the responder.
type rig struct {
	s      *sim.Sim
	l      *fabric.Link
	client Instance
	server Instance
	got    *recPort
	resp   *responder
	// lost[i] blackholes direction i->other: frames sent from side i
	// are discarded on arrival, a one-way loss the link's carrier (which
	// cuts both directions) cannot express.
	lost [2]bool
}

// lossyPort drops the frames of direction from while the rig says it
// is lost, and passes the rest to the wrapped port.
type lossyPort struct {
	r    *rig
	from int
	next fabric.FramePort
}

func (p *lossyPort) DeliverFrame(f []byte) {
	if !p.r.lost[p.from] {
		p.next.DeliverFrame(f)
	}
}

func newRig(t *testing.T, params fabric.NetParams, clientKind, serverKind Kind) *rig {
	t.Helper()
	s := sim.New(1)
	l := fabric.NewLink(s, params)
	r := &rig{s: s, l: l, got: &recPort{}, resp: &responder{l: l}}
	ce, ok := Lookup(clientKind)
	if !ok {
		t.Fatalf("client kind %d not registered", clientKind)
	}
	se, ok := Lookup(serverKind)
	if !ok {
		t.Fatalf("server kind %d not registered", serverKind)
	}
	r.client = ce.New(Params{Sim: s, Self: clientEP})
	r.server = se.New(Params{Sim: s, Self: serverEP})
	l.Attach(&lossyPort{r: r, from: 1, next: r.client.WrapPort(r.got)},
		&lossyPort{r: r, from: 0, next: r.server.WrapPort(r.resp)})
	r.client.BindLink(l, 0)
	r.server.BindLink(l, 1)
	return r
}

// request offers a fresh request frame to the client side of the link.
func (r *rig) request(t *testing.T, id uint64, payload int) {
	t.Helper()
	body := rpc.EncodeRequest(7, 1, id, 0, make([]byte, payload))
	f, err := wire.BuildUDP(clientEP, serverEP, uint16(id), body)
	if err != nil {
		t.Fatal(err)
	}
	r.l.Send(0, f)
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("registered %d schemes, want 4 (raw, retry, ecn, credit)", len(all))
	}
	for i, e := range all {
		if e.Kind != Kind(i) {
			t.Fatalf("All()[%d].Kind = %d, want kinds sorted", i, e.Kind)
		}
		got, ok := ByName(e.Name)
		if !ok || got.Kind != e.Kind {
			t.Fatalf("ByName(%q) did not round-trip", e.Name)
		}
	}
	if raw, _ := Lookup(Raw); raw.New != nil {
		t.Fatal("Raw must be a nil-New pass-through scheme")
	}
	for _, k := range []Kind{Retry, ECN, Credit} {
		e, _ := Lookup(k)
		if e.New == nil {
			t.Fatalf("%s scheme has nil New", e.Name)
		}
	}
	if Retry.Name() != "retry" || Kind(99).Name() != "transport(99)" {
		t.Fatal("Kind.Name registry lookup broken")
	}
}

// TestRetryRetransmitsThroughOutage: a request sent into a downed link
// is retransmitted with backoff until the link recovers, then completes.
func TestRetryRetransmitsThroughOutage(t *testing.T) {
	r := newRig(t, fabric.Net100G, Retry, Retry)
	r.l.SetUp(false)
	r.request(t, 1, 64)
	// RTO schedule: retransmits at 1ms and 3ms; recovery between them.
	r.s.At(1500*sim.Microsecond, "up", func() { r.l.SetUp(true) })
	r.s.Run()
	if len(r.got.frames) != 1 {
		t.Fatalf("client received %d responses, want 1", len(r.got.frames))
	}
	if r.resp.served != 1 {
		t.Fatalf("service ran %d times, want 1", r.resp.served)
	}
	st := r.client.Stats()
	if st.Retransmits != 2 {
		t.Fatalf("Retransmits = %d, want 2 (1ms into outage, 3ms after recovery)", st.Retransmits)
	}
	if st.GiveUps != 0 {
		t.Fatalf("GiveUps = %d on a recovered request", st.GiveUps)
	}
}

// TestRetryReplaysCachedResponse: when only the response is lost, the
// retransmit must be answered from the responder's cache without
// re-executing the service.
func TestRetryReplaysCachedResponse(t *testing.T) {
	r := newRig(t, fabric.Net100G, Retry, Retry)
	r.lost[1] = true // server→client direction lost
	r.request(t, 1, 64)
	r.s.At(500*sim.Microsecond, "up", func() { r.lost[1] = false })
	r.s.Run()
	if len(r.got.frames) != 1 {
		t.Fatalf("client received %d responses, want 1 replayed", len(r.got.frames))
	}
	if r.resp.served != 1 {
		t.Fatalf("service ran %d times, want 1 (duplicate must hit the replay cache)", r.resp.served)
	}
	cst, sst := r.client.Stats(), r.server.Stats()
	if cst.Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want 1", cst.Retransmits)
	}
	if sst.Replays != 1 {
		t.Fatalf("Replays = %d, want 1", sst.Replays)
	}
	if sst.DupsSuppressed != 0 {
		t.Fatalf("DupsSuppressed = %d, want 0 (request had been answered)", sst.DupsSuppressed)
	}
}

// TestRetryGivesUpAfterBudget: a permanently blackholed request is
// abandoned after the full retransmit budget.
func TestRetryGivesUpAfterBudget(t *testing.T) {
	r := newRig(t, fabric.Net100G, Retry, Retry)
	r.l.SetUp(false)
	r.request(t, 1, 64)
	r.s.Run()
	st := r.client.Stats()
	if st.Retransmits != retryMaxRetransmits {
		t.Fatalf("Retransmits = %d, want %d", st.Retransmits, retryMaxRetransmits)
	}
	if st.GiveUps != 1 {
		t.Fatalf("GiveUps = %d, want 1", st.GiveUps)
	}
	rt := r.client.(*retryT)
	if len(rt.pend) != 0 {
		t.Fatalf("%d pend entries leak after give-up", len(rt.pend))
	}
	if len(rt.pendFree) != 1 {
		t.Fatalf("pend pool holds %d, want the abandoned entry recycled", len(rt.pendFree))
	}
}

// TestECNCutsWindowOnMarks: a burst over a marking link must see CE
// signals, echo them on responses, cut the window, and still complete
// every request.
func TestECNCutsWindowOnMarks(t *testing.T) {
	params := fabric.Net100G
	params.ECNThreshold = 100 * sim.Nanosecond
	r := newRig(t, params, ECN, ECN)
	const n = 40
	for i := 1; i <= n; i++ {
		r.request(t, uint64(i), 1400)
	}
	r.s.Run()
	if len(r.got.frames) != n {
		t.Fatalf("client received %d responses, want %d", len(r.got.frames), n)
	}
	cst, sst := r.client.Stats(), r.server.Stats()
	if cst.HeldFrames != n-uint64(ecnInitWnd) {
		t.Fatalf("HeldFrames = %d, want %d (burst beyond the initial window)", cst.HeldFrames, n-uint64(ecnInitWnd))
	}
	if cst.MarksSeen == 0 {
		t.Fatal("no congestion signals seen over a marking link")
	}
	if cst.WindowCuts == 0 {
		t.Fatal("marked windows must cut")
	}
	if sst.EchoesSent == 0 {
		t.Fatal("responder never echoed a CE mark")
	}
	c := r.client.(*ecnT).conns[serverEP.IP.Uint32()]
	if c == nil || c.inflight != 0 {
		t.Fatalf("conn inflight = %v after drain, want 0", c.inflight)
	}
	if c.wnd >= ecnInitWnd+float64(n)/float64(ecnInitWnd) {
		t.Fatalf("wnd = %v grew as if never cut", c.wnd)
	}
}

// TestECNReclaimsLostWindow: with every response blackholed, the
// reclaim timer must free in-flight slots (releasing held frames) and
// cut, rather than wedging the connection.
func TestECNReclaimsLostWindow(t *testing.T) {
	r := newRig(t, fabric.Net100G, ECN, ECN)
	r.lost[1] = true
	const n = 10
	for i := 1; i <= n; i++ {
		r.request(t, uint64(i), 64)
	}
	r.s.Run()
	st := r.client.Stats()
	if st.SlotReclaims != n {
		t.Fatalf("SlotReclaims = %d, want %d (all slots eventually reclaimed)", st.SlotReclaims, n)
	}
	if st.WindowCuts == 0 {
		t.Fatal("reclaimed windows must cut")
	}
	if r.resp.served != n {
		t.Fatalf("service ran %d times, want %d (requests flowed, responses were lost)", r.resp.served, n)
	}
}

// TestCreditPacesBurst: a burst beyond the unsolicited window is held
// for receiver grants; control frames are absorbed before the inner
// ports; everything completes.
func TestCreditPacesBurst(t *testing.T) {
	r := newRig(t, fabric.Net100G, Credit, Credit)
	const n = 10
	for i := 1; i <= n; i++ {
		r.request(t, uint64(i), 200)
	}
	r.s.Run()
	if len(r.got.frames) != n {
		t.Fatalf("client received %d responses, want %d", len(r.got.frames), n)
	}
	if r.resp.served != n {
		t.Fatalf("service ran %d times, want %d", r.resp.served, n)
	}
	cst, sst := r.client.Stats(), r.server.Stats()
	if cst.HeldFrames != n-creditW0 {
		t.Fatalf("HeldFrames = %d, want %d", cst.HeldFrames, n-creditW0)
	}
	if cst.RTSSent == 0 || sst.GrantsSent == 0 {
		t.Fatalf("control plane silent: RTS=%d grants=%d", cst.RTSSent, sst.GrantsSent)
	}
	// Control frames must never leak into the inner ports: the recorder
	// holds only RPC responses, the responder count only requests.
	for i, f := range r.got.frames {
		d, err := wire.ParseUDP(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if d.UDP.DstPort == CtrlPort {
			t.Fatalf("control frame %d leaked into the client port", i)
		}
	}
}

// TestCreditGrantLoopRoundRobin pins the receiver's grant policy: the
// in-flight estimate caps total credit and the cursor spreads it across
// sources in first-seen order.
func TestCreditGrantLoopRoundRobin(t *testing.T) {
	r := newRig(t, fabric.Net100G, Credit, Credit)
	ct := r.server.(*creditT)
	for i := 0; i < 3; i++ {
		rv := &creditRecv{src: wire.Endpoint{IP: wire.IP{10, 0, 1, byte(i)}, Port: CtrlPort}, want: 10}
		ct.recvs[rv.src.IP.Uint32()] = rv
		ct.recvList = append(ct.recvList, rv)
	}
	ct.grantLoop()
	est := uint64(0)
	for _, rv := range ct.recvList {
		est += rv.outstanding()
	}
	if est != creditGrantMax {
		t.Fatalf("in-flight estimate %d after grantLoop, want cap %d", est, creditGrantMax)
	}
	got := []uint64{ct.recvList[0].granted, ct.recvList[1].granted, ct.recvList[2].granted}
	// est starts at 3×W0; 5 more grants round-robin: 2,2,1.
	if got[0] != 2 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("granted = %v, want round-robin [2 2 1]", got)
	}
	if st := r.server.Stats(); st.GrantsSent != 3 {
		t.Fatalf("GrantsSent = %d, want one flush per dirty source", st.GrantsSent)
	}
}

// TestCreditReceiverReclaims: granted frames lost on the wire must not
// wedge the grant loop — the no-progress timer writes them off.
func TestCreditReceiverReclaims(t *testing.T) {
	r := newRig(t, fabric.Net100G, Credit, Credit)
	const n = 6
	for i := 1; i <= n; i++ {
		r.request(t, uint64(i), 200)
	}
	// Lose the client→server direction after the first grants are issued
	// (~0.7µs) but before the released frames arrive: the receiver is
	// left with outstanding credit that will never arrive.
	r.s.At(sim.Microsecond, "cut", func() { r.lost[0] = true })
	r.s.RunUntil(20 * sim.Millisecond)
	sst := r.server.Stats()
	if sst.SlotReclaims == 0 {
		t.Fatal("receiver never reclaimed lost in-flight credit")
	}
	est := uint64(0)
	for _, rv := range r.server.(*creditT).recvList {
		est += rv.outstanding()
	}
	if est != 0 {
		t.Fatalf("in-flight estimate stuck at %d after reclaim", est)
	}
}

// TestSchemesDeterministic: identical rigs produce identical stats and
// deliveries — the transport layer adds no hidden nondeterminism.
func TestSchemesDeterministic(t *testing.T) {
	run := func(k Kind) (Stats, Stats, int, sim.Time) {
		params := fabric.Net100G
		params.ECNThreshold = 100 * sim.Nanosecond
		r := newRig(t, params, k, k)
		for i := 1; i <= 25; i++ {
			r.request(t, uint64(i), 700)
		}
		r.s.At(20*sim.Microsecond, "flap-down", func() { r.l.SetUp(false) })
		r.s.At(600*sim.Microsecond, "flap-up", func() { r.l.SetUp(true) })
		r.s.Run()
		return r.client.Stats(), r.server.Stats(), len(r.got.frames), r.s.Now()
	}
	for _, k := range []Kind{Retry, ECN, Credit} {
		c1, s1, n1, t1 := run(k)
		c2, s2, n2, t2 := run(k)
		if c1 != c2 || s1 != s2 || n1 != n2 || t1 != t2 {
			t.Fatalf("%s: two identical runs diverged: %+v/%+v %d@%v vs %+v/%+v %d@%v",
				k.Name(), c1, s1, n1, t1, c2, s2, n2, t2)
		}
	}
}
