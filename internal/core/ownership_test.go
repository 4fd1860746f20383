package core

import (
	"bytes"
	"testing"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// poolSend builds a frame carrying payload to to from pool and sends it
// from the rig's client.
func poolSend(t *testing.T, c *testClient, pool *wire.FramePool, to wire.Endpoint, id uint64, payload []byte) {
	t.Helper()
	f, err := pool.BuildUDP(clientEP, to, uint16(id), payload)
	if err != nil {
		t.Fatal(err)
	}
	c.link.Send(0, f)
}

// TestNICReturnsFrames: with a pool armed, the NIC builds responses from
// it and returns every request frame it terminally consumes — served
// requests once their inflight entry is freed (inline and aux bodies),
// NIC-answered unknown methods, and frames dropped as bad, undecodable,
// or addressed elsewhere. Every response still carries its request's
// bytes, which poisoning in Put would have clobbered had a frame come
// back while a body alias was live.
func TestNICReturnsFrames(t *testing.T) {
	s, h, client := lhRig(t, 1, 0)
	pool := new(wire.FramePool)
	h.NIC.Frames = pool
	s.RunUntil(sim.Millisecond)
	to := serverEP
	to.Port = 9000
	aux := make([]byte, 300) // spills past the inline chunk into aux lines
	for i := range aux {
		aux[i] = byte(i * 7)
	}
	poolSend(t, client, pool, to, 1, rpc.EncodeRequest(1, 1, 1, 0, []byte("hello")))
	s.RunUntil(5 * sim.Millisecond)
	poolSend(t, client, pool, to, 2, rpc.EncodeRequest(1, 1, 2, 0, aux))
	s.RunUntil(10 * sim.Millisecond)
	poolSend(t, client, pool, to, 3, rpc.EncodeRequest(1, 99, 3, 0, nil)) // unknown method
	poolSend(t, client, pool, to, 4, []byte("not-rpc"))
	foreign := to
	foreign.IP = wire.IP{10, 0, 0, 99}
	poolSend(t, client, pool, foreign, 5, rpc.EncodeRequest(1, 1, 5, 0, nil))
	unbound := to
	unbound.Port = 1
	poolSend(t, client, pool, unbound, 6, rpc.EncodeRequest(1, 1, 6, 0, nil))
	s.RunUntil(20 * sim.Millisecond)

	if len(client.resps) != 3 {
		t.Fatalf("%d responses, want 3", len(client.resps))
	}
	if string(client.resps[0].Body) != "hello" || !bytes.Equal(client.resps[1].Body, aux) {
		t.Fatal("response body clobbered")
	}
	if client.resps[2].Status != rpc.StatusNoSuchMethod {
		t.Fatalf("status %d", client.resps[2].Status)
	}
	if st := h.NIC.Stats(); st.RxBad != 2 || st.RxFiltered != 1 {
		t.Fatalf("stats %+v", st)
	}
	if pool.Gets != 9 || pool.Puts != 6 {
		t.Fatalf("pool gets=%d puts=%d, want 6 requests + 3 responses built, 6 requests returned", pool.Gets, pool.Puts)
	}
}

// TestNICReturnsBufferDispatchedFrame: a body at or above the DMA
// threshold is dispatched by buffer descriptor, so the handler reads the
// request frame itself (DMABody); the frame comes back only after the
// response has left, and a response small enough for the cache-line
// path carries intact request bytes.
func TestNICReturnsBufferDispatchedFrame(t *testing.T) {
	s := sim.New(31)
	cfg := DefaultHostConfig(serverEP, 1)
	cfg.NIC.DMAThreshold = 1024
	h := NewHost(s, cfg)
	pool := new(wire.FramePool)
	h.NIC.Frames = pool
	link := fabric.NewLink(s, fabric.Net100G)
	client := &testClient{s: s, link: link, sentAt: map[uint64]sim.Time{}, rtts: map[uint64]sim.Time{}}
	link.Attach(client, h.NIC)
	h.NIC.AttachLink(link, 1)
	h.RegisterService(&rpc.ServiceDesc{ID: 1, Name: "head", Methods: []rpc.MethodDesc{{
		ID: 1, Name: "head",
		Handler: func(req []byte) ([]byte, sim.Time) { return req[:16], sim.Microsecond },
	}}}, 9000, 0)
	h.Start()
	s.RunUntil(sim.Millisecond)
	body := make([]byte, 2000)
	for i := range body {
		body[i] = byte(i*3 + 1)
	}
	to := serverEP
	to.Port = 9000
	poolSend(t, client, pool, to, 1, rpc.EncodeRequest(1, 1, 1, 0, body))
	s.RunUntil(20 * sim.Millisecond)
	if len(client.resps) != 1 || !bytes.Equal(client.resps[0].Body, body[:16]) {
		t.Fatalf("responses %v", client.resps)
	}
	if pool.Puts != 1 {
		t.Fatalf("pool puts=%d, want the request frame back", pool.Puts)
	}
}
