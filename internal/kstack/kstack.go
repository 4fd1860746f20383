// Package kstack models the traditional in-kernel network receive path of
// the paper's Figure 1 and Figure 5 (left): NIC interrupt → softirq
// protocol processing → socket lookup and enqueue → thread wakeup →
// context switch → recv syscall → software unmarshal → handler.
//
// It is the "Linux" series in the experiments: the most flexible of the
// three stacks (any thread on any core, no pinning, no spinning) and the
// one with the most software on the critical path.
//
// Determinism invariants: softirq and server-thread wakeups are ordinary
// kernel scheduling (FIFO, timer-driven, randomness-free), so the stack
// replays identically for a given seed and frame sequence.
package kstack

import (
	"fmt"

	"lauberhorn/internal/kernel"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Costs are the per-stage software costs of the kernel receive/transmit
// paths, roughly matching published Linux breakdowns (experiment e2
// reproduces the per-step table; see DESIGN.md).
type Costs struct {
	// SoftirqPerPacket covers NAPI poll, skb setup, IP/UDP protocol
	// processing for one packet.
	SoftirqPerPacket sim.Time
	// SocketLookup is the demultiplex to a socket.
	SocketLookup sim.Time
	// SocketEnqueue covers queueing the skb and the wakeup call.
	SocketEnqueue sim.Time
	// RecvCopy is the per-byte user-copy cost on recvmsg.
	RecvCopyPerByte sim.Time
	// RecvFixed is the fixed recvmsg work beyond the generic syscall cost.
	RecvFixed sim.Time
	// SendFixed/SendCopyPerByte likewise for sendmsg, including building
	// headers and the TX descriptor.
	SendFixed       sim.Time
	SendCopyPerByte sim.Time
}

// DefaultCosts returns the cost set used by the experiments.
func DefaultCosts() Costs {
	return Costs{
		SoftirqPerPacket: 1500 * sim.Nanosecond,
		SocketLookup:     250 * sim.Nanosecond,
		SocketEnqueue:    300 * sim.Nanosecond,
		RecvCopyPerByte:  sim.Time(100), // 0.1 ns/B ≈ 10 GB/s copy
		RecvFixed:        500 * sim.Nanosecond,
		SendFixed:        900 * sim.Nanosecond,
		SendCopyPerByte:  sim.Time(100),
	}
}

// Socket is a bound UDP socket with a kernel wait queue.
type Socket struct {
	Port  uint16
	queue *kernel.WaitQueue
	stack *Stack
}

// Stack is one host's kernel network stack instance.
type Stack struct {
	K     *kernel.Kernel
	NIC   *nicdma.NIC
	Costs Costs

	Local wire.Endpoint

	sockets map[uint16]*Socket
	ipID    uint16

	// statistics
	SoftirqPackets uint64
	NoSocketDrops  uint64
}

// New builds a stack over a kernel and a NIC, wiring every NIC queue's
// interrupt to a softirq handler. Queue i's IRQ is steered to core
// i mod NumCores.
func New(k *kernel.Kernel, nic *nicdma.NIC, local wire.Endpoint, costs Costs) *Stack {
	st := &Stack{K: k, NIC: nic, Costs: costs, Local: local, sockets: make(map[uint16]*Socket)}
	for i := 0; i < nic.NumQueues(); i++ {
		q := nic.Queue(i)
		core := i % k.NumCores()
		q.OnIRQ = func(q *nicdma.RxQueue) { st.softirq(core, q) }
		q.EnableIRQ()
	}
	return st
}

// Bind creates a socket on the given UDP port.
func (st *Stack) Bind(port uint16) *Socket {
	if _, dup := st.sockets[port]; dup {
		panic(fmt.Sprintf("kstack: port %d already bound", port))
	}
	s := &Socket{Port: port, queue: st.K.NewWaitQueue(fmt.Sprintf("sock:%d", port)), stack: st}
	s.queue.MaxDepth = 1024
	st.sockets[port] = s
	return s
}

// softirq drains the RX queue in interrupt context on the given core,
// charging per-packet protocol costs, then re-enables the queue's IRQ
// (NAPI).
func (st *Stack) softirq(core int, q *nicdma.RxQueue) {
	// Collect what is currently in the ring; packets arriving during the
	// softirq will re-raise the (re-enabled) interrupt.
	var pkts []*wire.Datagram
	for {
		d := q.Poll()
		if d == nil {
			break
		}
		pkts = append(pkts, d)
	}
	cost := sim.Time(len(pkts)) * (st.Costs.SoftirqPerPacket + st.Costs.SocketLookup + st.Costs.SocketEnqueue)
	st.K.IRQ(core, cost, func() {
		for _, d := range pkts {
			st.SoftirqPackets++
			sock, ok := st.sockets[d.UDP.DstPort]
			if !ok {
				st.NoSocketDrops++
				st.NIC.Frames.Put(d.Frame)
				continue
			}
			if !sock.queue.Push(d) {
				st.NIC.Frames.Put(d.Frame)
			}
		}
		q.EnableIRQ()
	})
}

// Recv blocks the calling thread until a datagram arrives on the socket,
// then charges recvmsg syscall + copy costs and continues with the
// datagram.
func (s *Socket) Recv(tc *kernel.TC, then func(tc *kernel.TC, d *wire.Datagram)) {
	s.queue.Pop(tc, func(tc *kernel.TC, item any) {
		d := item.(*wire.Datagram)
		cost := s.stack.Costs.RecvFixed + sim.Time(len(d.Payload))*s.stack.Costs.RecvCopyPerByte
		tc.Syscall(cost, func() { then(tc, d) })
	})
}

// Send transmits payload to dst as a UDP datagram: sendmsg syscall costs
// (header build + copy + descriptor + doorbell) on the calling thread,
// then the NIC-side transmit. The frame comes from the NIC's pool.
func (s *Socket) Send(tc *kernel.TC, dst wire.Endpoint, payload []byte, then func(tc *kernel.TC)) {
	st := s.stack
	st.ipID++
	src := st.Local
	src.Port = s.Port
	frame, err := st.NIC.Frames.BuildUDP(src, dst, st.ipID, payload)
	if err != nil {
		panic(fmt.Sprintf("kstack: send: %v", err))
	}
	cost := st.Costs.SendFixed + sim.Time(len(payload))*st.Costs.SendCopyPerByte + st.NIC.DoorbellCost()
	tc.Syscall(cost, func() {
		st.NIC.Transmit(frame)
		then(tc)
	})
}

// ServerConfig describes an RPC server thread serving one socket.
type ServerConfig struct {
	Socket   *Socket
	Registry *rpc.Registry
	Codec    rpc.CostModel
	// OnResponse, when non-nil, observes every response just before
	// transmit (used by tests).
	OnResponse func(m *rpc.Message)
}

// server is the flattened state machine behind ServeLoop: one request in
// flight per thread, per-request state in reused fields, every stage
// continuation bound once at construction.
type server struct {
	cfg ServerConfig

	tc *kernel.TC // current thread context, refreshed by the Pop callback

	// per-request state
	d        *wire.Datagram
	msg      rpc.Message
	status   uint16
	respBody []byte
	encScr   []byte // response encoding scratch; BuildUDP copies it
	respMsg  rpc.Message
	frame    []byte // response frame awaiting the send syscall

	// continuations, bound once
	popFn       func(*kernel.TC, any)
	received    func()
	afterDecode func()
	afterSvc    func()
	afterEncode func()
	sent        func()
}

func newServer(cfg ServerConfig) *server {
	s := &server{cfg: cfg}
	s.popFn = s.onPop
	s.received = s.decode
	s.afterDecode = s.dispatch
	s.afterSvc = s.encode
	s.afterEncode = s.send
	s.sent = s.transmit
	return s
}

// loop blocks on the socket queue for the next datagram.
//
//lhlint:hotpath
func (s *server) loop() {
	s.cfg.Socket.queue.Pop(s.tc, s.popFn)
}

// onPop charges the recvmsg syscall for the popped datagram.
//
//lhlint:hotpath
func (s *server) onPop(tc *kernel.TC, item any) {
	s.tc = tc
	d := item.(*wire.Datagram)
	s.d = d
	st := s.cfg.Socket.stack
	cost := st.Costs.RecvFixed + sim.Time(len(d.Payload))*st.Costs.RecvCopyPerByte
	tc.Syscall(cost, s.received)
}

// decode parses the RPC and charges software unmarshal + dispatch lookup.
//
//lhlint:hotpath
func (s *server) decode() {
	if err := rpc.DecodeInto(s.d.Payload, &s.msg); err != nil {
		// Malformed RPC: drop and continue serving.
		s.cfg.Socket.stack.NIC.Frames.Put(s.d.Frame)
		s.d = nil
		s.loop()
		return
	}
	decodeCost := s.cfg.Codec.Unmarshal(len(s.msg.Body)) + s.cfg.Codec.DispatchLookup
	s.tc.RunUser(decodeCost, s.afterDecode)
}

// dispatch runs the handler and charges its service time.
//
//lhlint:hotpath
func (s *server) dispatch() {
	cfg := &s.cfg
	svc := cfg.Registry.Lookup(s.msg.Service)
	var m *rpc.MethodDesc
	if svc != nil {
		m = svc.Method(s.msg.Method)
	}
	s.status = rpc.StatusOK
	s.respBody = nil
	var service sim.Time
	if m == nil {
		s.status = rpc.StatusNoSuchMethod
	} else {
		s.respBody, service = m.Handler(s.msg.Body)
	}
	s.tc.RunUser(service, s.afterSvc)
}

// encode serializes the response into the scratch buffer and charges the
// software marshal cost.
//
//lhlint:hotpath
func (s *server) encode() {
	cfg := &s.cfg
	s.encScr = rpc.AppendMessage(s.encScr[:0], rpc.Header{
		Kind: rpc.KindResponse, Service: s.msg.Service, Method: s.msg.Method,
		ID: s.msg.ID, Status: s.status,
	}, s.respBody)
	if err := rpc.DecodeInto(s.encScr, &s.respMsg); err == nil && cfg.OnResponse != nil {
		cfg.OnResponse(&s.respMsg)
	}
	s.tc.RunUser(cfg.Codec.Marshal(len(s.respBody)), s.afterEncode)
}

// send builds the response frame from the pool and charges the sendmsg
// syscall; the frame's ownership transfers to the NIC at transmit. The
// server is the request frame's terminal consumer: once the response is
// built, the destination has been read and encScr holds its own copy of
// the response body, so the request frame goes back to the pool.
//
//lhlint:hotpath
func (s *server) send() {
	d := s.d
	sock := s.cfg.Socket
	st := sock.stack
	st.ipID++
	src := st.Local
	src.Port = sock.Port
	dst := wire.Endpoint{MAC: d.Eth.Src, IP: d.IP.Src, Port: d.UDP.SrcPort}
	frame, err := st.NIC.Frames.BuildUDP(src, dst, st.ipID, s.encScr)
	if err != nil {
		panicSend(err)
	}
	st.NIC.Frames.Put(d.Frame)
	s.d = nil
	s.frame = frame
	cost := st.Costs.SendFixed + sim.Time(len(s.encScr))*st.Costs.SendCopyPerByte + st.NIC.DoorbellCost()
	s.tc.Syscall(cost, s.sent)
}

// transmit hands the built frame to the NIC and re-enters the loop.
//
//lhlint:hotpath
func (s *server) transmit() {
	st := s.cfg.Socket.stack
	st.NIC.Transmit(s.frame)
	s.frame = nil
	s.loop()
}

// panicSend keeps the fmt boxing of the oversized-response panic off the
// send hot path; it never returns.
func panicSend(err error) {
	panic(fmt.Sprintf("kstack: send: %v", err))
}

// ServeLoop is a thread body: receive → decode (software) → dispatch →
// handler → encode → send, forever. Spawn it with kernel.Spawn on a
// process representing the service.
func ServeLoop(cfg ServerConfig) func(tc *kernel.TC) {
	s := newServer(cfg)
	return func(tc *kernel.TC) {
		s.tc = tc
		s.loop()
	}
}
