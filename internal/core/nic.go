package core

import (
	"fmt"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/mesi"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/trace"
	"lauberhorn/internal/wire"
)

// Config parameterizes the Lauberhorn NIC.
type Config struct {
	// Fabric must support coherence; it supplies all line-protocol
	// latencies.
	Fabric fabric.Params
	// Local is this host's network identity.
	Local wire.Endpoint

	// Decoder pipeline stage costs (Fig. 3). HeaderParse covers the MAC/
	// IP/UDP streaming decoders; DecodeFixed + DecodePerByte the RPC
	// deserializer (hardware accelerator in the Optimus Prime class);
	// the optional stages run only for flagged messages.
	HeaderParse       sim.Time
	DecodeFixed       sim.Time
	DecodePerByte     sim.Time
	DecryptPerByte    sim.Time
	DecompressPerByte sim.Time

	// TxBuild is the NIC-side cost to assemble a response frame.
	TxBuild sim.Time

	// TryAgainTimeout bounds how long a load may stay deferred before the
	// NIC answers with a TryAgain dummy (§5.1: 15 ms, well under the
	// coherence protocol's bus-error timeout).
	TryAgainTimeout sim.Time

	// SvcQueueDepth bounds the NIC's per-service request queue; excess
	// requests are dropped (and counted), as a real NIC's SRAM would
	// overflow.
	SvcQueueDepth int

	// BacklogHighWater is the per-service queue depth at which the NIC
	// notifies the OS to find it a core (§5.2 dynamic scaling).
	BacklogHighWater int

	// DMAThreshold switches large messages to a DMA data path (§6: "for
	// large messages ... it is best to revert back to DMA-based
	// transfers"). Bodies of at least this many bytes are DMA'd to host
	// memory and the control line carries a buffer descriptor instead of
	// inline+aux data; responses at least this large are pulled back by
	// DMA. Zero disables the fallback (pure cache-line transfers).
	DMAThreshold int
	// DMA supplies the DMA-engine latencies for the fallback path; it
	// must have HasDMA when DMAThreshold > 0.
	DMA fabric.Params
}

// DefaultConfig returns the ECI-based configuration used by the
// experiments.
func DefaultConfig(local wire.Endpoint) Config {
	return Config{
		Fabric:            fabric.ECI,
		Local:             local,
		HeaderParse:       120 * sim.Nanosecond,
		DecodeFixed:       150 * sim.Nanosecond,
		DecodePerByte:     sim.Time(200), // 0.2 ns/B ≈ 5 GB/s decoder
		DecryptPerByte:    sim.Time(250),
		DecompressPerByte: sim.Time(400),
		TxBuild:           150 * sim.Nanosecond,
		TryAgainTimeout:   15 * sim.Millisecond,
		SvcQueueDepth:     256,
		BacklogHighWater:  2,
		DMAThreshold:      4096,
		DMA:               fabric.ECIWithDMA,
	}
}

// Stats counts NIC activity; the experiments read these.
type Stats struct {
	RxFrames     uint64
	RxBad        uint64
	RxDropped    uint64
	RxFiltered   uint64 // not addressed to this host (switched fabrics)
	TxFrames     uint64
	TxNoCarrier  uint64 // staged frames dropped because the link was down
	FastDispatch uint64 // request answered a pending user-mode load
	KernDispatch uint64 // request answered a pending kernel-mode load
	SoftNotify   uint64 // no pending load: OS notified in software
	TryAgains    uint64
	Retires      uint64
	ClientReqs   uint64           // outbound RPCs transmitted
	ClientResps  uint64           // outbound RPC responses delivered
	Backlog      *stats.Histogram // queue depth at enqueue
}

// Endpoint is the NIC-side state of one registered service.
type Endpoint struct {
	Svc     uint32
	PID     int
	Port    uint16 // UDP destination port the service answers on
	methods map[uint16]methodInfo

	queue []*inflight // decoded requests awaiting dispatch

	// waiters are this endpoint's deferred loads, FIFO — cores stalled on
	// the service's control lines.
	waiters []*pendingLoad

	// minWorkers is the endpoint's poller floor: at or above it, the
	// retire policy may hand the core to a starved service.
	minWorkers int
}

// Pollers returns the number of cores stalled on this endpoint.
func (ep *Endpoint) Pollers() int { return len(ep.waiters) }

type methodInfo struct {
	code uint64
	data uint64
}

// inflight tracks one request from decode to response transmit.
type inflight struct {
	serial uint64
	svc    uint32
	method uint16
	rpcID  uint64
	// body aliases frame, the delivered request frame, which the entry
	// holds until freeInflight returns it to the pool.
	body     []byte
	frame    []byte
	client   wire.Endpoint
	arriveAt sim.Time
	// viaDMA marks a large request whose body was DMA'd to host memory
	// (§6 fallback); the dispatch line then carries a buffer descriptor.
	viaDMA bool
	// dmaResp marks that the host placed the response in a DMA buffer;
	// the NIC pulls it before transmitting.
	dmaResp bool
}

// pendingLoad is a deferred fill: a core stalled on a control line.
// Entries are pooled on the NIC (plFree) with the TryAgain timer callback
// bound once at allocation, so parking a load allocates nothing in steady
// state.
type pendingLoad struct {
	n       *NIC
	addr    mesi.LineAddr
	coreID  int
	svc     uint32 // 0 for kernel lines
	kernel  bool
	respond func(data []byte)
	timer   *sim.Event
	fire    func()
}

// recallPend carries a response-extraction recall's parameters through the
// directory's Recall callback; entries are pooled on the NIC (rcFree) with
// the callback bound once at allocation.
type recallPend struct {
	n       *NIC
	serial  uint64
	addr    mesi.LineAddr
	region  int
	svc     uint32
	coreID  int
	respond func([]byte) // nil when no follow-up load answer is needed
	fire    func([]byte)
}

// NIC is the Lauberhorn device model. It implements mesi.Backing (it is
// the home agent for all control lines) and fabric.FramePort (it
// terminates the Ethernet link).
type NIC struct {
	// Frames is the host's frame free list (nil where the universe arms
	// no pools). The NIC builds every frame it transmits from it and
	// returns every frame it terminally consumes: dropped frames, request
	// frames once their inflight entry is freed, and nested-call
	// responses once their body is copied.
	Frames *wire.FramePool

	sim *sim.Sim
	cfg Config
	dir *mesi.Directory

	link *fabric.Link
	side int

	endpoints map[uint32]*Endpoint
	byPort    map[uint16]*Endpoint

	// pendingByCore tracks the (at most one) deferred load per core,
	// indexed by core ID — a direct array hit on every packet arrival and
	// kick, where a map would hash. Grown on demand for out-of-range IDs.
	pendingByCore []*pendingLoad
	// kernelOrder lists the deferred loads of cores whose kernel loop is
	// stalled, FIFO.
	kernelOrder []*pendingLoad

	inflights  map[uint64]*inflight
	nextSerial uint64

	// awaiting[a] is the serial whose response the CPU is writing into
	// line a; set when the request is dispatched, consumed when the
	// paired line is loaded.
	awaiting map[mesi.LineAddr]uint64

	// auxOut[serial] carries response body bytes beyond the inline chunk
	// (the contents of the aux cache lines).
	auxOut map[uint64][]byte

	// sched mirror: per-core PID pushed by the kernel (§4: the OS keeps
	// the NIC updated with scheduling state).
	coreProc   []int
	schedPush  uint64
	ipID       uint16
	decodeBusy sim.Time

	// Preallocated bound callbacks for the per-packet event hot paths:
	// frames and decoded messages wait in FIFO staging queues and a single
	// reused func value fires them, so neither transmit nor decode
	// allocates a closure per packet. FIFO is sound because TxBuild is
	// constant and decode completions are monotone (decodeBusy).
	txFn    func()
	txq     [][]byte
	txHead  int
	decFn   func()
	decq    []decoded
	decHead int

	// Per-NIC staging scratch: the receive path parses frames into rxScr
	// and appends it by value onto decq; decodeDone copies the head slot
	// into dispScr before dispatching. encScr backs synchronous response
	// encodings (BuildUDP copies the payload into the frame before txRPC
	// returns). All three are reused every packet, so the steady-state
	// receive/transmit paths allocate nothing.
	rxScr   decoded
	dispScr decoded
	encScr  []byte
	// lineScr backs dispatch/marker control-line builds whose consumer
	// copies the line synchronously (the directory's deliver path); the
	// viaDMA dispatch, which parks its line across simulated time, still
	// allocates fresh.
	lineScr []byte

	// Free lists: inflight requests, deferred loads, and response-recall
	// pendings are recycled so the steady-state dispatch path allocates
	// nothing per request.
	ifFree []*inflight
	plFree []*pendingLoad
	rcFree []*recallPend

	// epOrder lists endpoints in registration order so the backlog scans
	// (oldestBacklog, anyStarved) walk a slice instead of hashing a map on
	// every deferred-load decision.
	epOrder []*Endpoint

	// Client (outbound RPC) state.
	clientChans  map[uint32]*clientChanNIC
	nextChanID   uint32
	clientCalls  map[uint64]*clientCall
	clientStaged map[mesi.LineAddr]struct{}
	clientAuxIn  map[uint64][]byte
	clientAuxOut map[uint64][]byte
	arp          map[wire.IP]wire.MAC

	// telemetry is the §6 per-service statistics block, readable by the
	// OS over the kernel control channel.
	telemetry map[uint32]*SvcTelemetry
	tracer    *trace.Tracer

	stats Stats

	// NotifyOS is the software slow path: invoked (once per transition
	// to non-empty with no poller) to tell the OS a service has work but
	// no core. The host runtime wires this to an IRQ + wakeup.
	NotifyOS func(svc uint32)

	// OnBacklog is invoked when a service's queue crosses the high-water
	// mark: the OS should find it another core.
	OnBacklog func(svc uint32)

	// RetirePolicy, when true, lets the NIC convert a TryAgain into a
	// Retire if other services are starved while this endpoint idles
	// (NIC-driven core reallocation).
	RetirePolicy bool

	// NoKernelDispatch disables the kernel-line dispatch path (ablation
	// E10: the NIC no longer knows which cores run kernel pollers, as if
	// scheduling state were not shared). Requests for services without a
	// polling core then wait on the software path.
	NoKernelDispatch bool
}

// NewNIC creates a Lauberhorn NIC with nCores worth of kernel endpoints.
func NewNIC(s *sim.Sim, cfg Config, nCores int) *NIC {
	if !cfg.Fabric.HasCoherence {
		panic(fmt.Sprintf("core: fabric %s has no coherence; Lauberhorn requires it", cfg.Fabric.Name))
	}
	if cfg.SvcQueueDepth <= 0 {
		cfg.SvcQueueDepth = 256
	}
	n := &NIC{
		sim:           s,
		cfg:           cfg,
		endpoints:     make(map[uint32]*Endpoint),
		byPort:        make(map[uint16]*Endpoint),
		pendingByCore: make([]*pendingLoad, nCores),
		inflights:     make(map[uint64]*inflight),
		awaiting:      make(map[mesi.LineAddr]uint64),
		auxOut:        make(map[uint64][]byte),
		coreProc:      make([]int, nCores),
		nextSerial:    1,
		clientChans:   make(map[uint32]*clientChanNIC),
		clientCalls:   make(map[uint64]*clientCall),
		clientStaged:  make(map[mesi.LineAddr]struct{}),
		clientAuxIn:   make(map[uint64][]byte),
		clientAuxOut:  make(map[uint64][]byte),
		arp:           make(map[wire.IP]wire.MAC),
		telemetry:     make(map[uint32]*SvcTelemetry),
	}
	if cfg.DMAThreshold > 0 && !cfg.DMA.HasDMA {
		panic("core: DMAThreshold set but DMA fabric has no DMA engine")
	}
	n.txFn = n.txFire
	n.decFn = n.decodeDone
	n.stats.Backlog = stats.NewHistogram()
	n.dir = mesi.NewDirectory(s, cfg.Fabric, n)
	return n
}

// pendingOn returns the deferred load parked on coreID, if any.
func (n *NIC) pendingOn(coreID int) *pendingLoad {
	if coreID < 0 || coreID >= len(n.pendingByCore) {
		return nil
	}
	return n.pendingByCore[coreID]
}

// Directory returns the coherence directory the NIC homes.
func (n *NIC) Directory() *mesi.Directory { return n.dir }

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// Stats returns a snapshot of the counters.
func (n *NIC) Stats() Stats { return n.stats }

// AttachLink connects the NIC to the network.
func (n *NIC) AttachLink(l *fabric.Link, side int) {
	n.link = l
	n.side = side
}

// RegisterService installs an endpoint: the OS pushes the service's
// demultiplex key (UDP port), process, and per-method code/data pointers —
// the state a traditional NIC never gets to see (§4: "it should have
// access to all the relevant OS state").
func (n *NIC) RegisterService(svc *rpc.ServiceDesc, pid int, port uint16, minWorkers int) *Endpoint {
	if _, dup := n.endpoints[svc.ID]; dup {
		panic(fmt.Sprintf("core: service %d already registered", svc.ID))
	}
	if _, dup := n.byPort[port]; dup {
		panic(fmt.Sprintf("core: port %d already registered", port))
	}
	ep := &Endpoint{
		Svc:        svc.ID,
		PID:        pid,
		Port:       port,
		methods:    make(map[uint16]methodInfo),
		minWorkers: minWorkers,
	}
	for _, m := range svc.Methods {
		ep.methods[m.ID] = methodInfo{code: m.CodeAddr, data: m.DataAddr}
	}
	n.endpoints[svc.ID] = ep
	n.byPort[port] = ep
	n.epOrder = append(n.epOrder, ep)
	return ep
}

// ---- hot-path free lists ----

// newInflight returns a zeroed request-tracking entry from the free list.
//
//lhlint:hotpath
func (n *NIC) newInflight() *inflight {
	if k := len(n.ifFree); k > 0 {
		req := n.ifFree[k-1]
		n.ifFree = n.ifFree[:k-1]
		return req
	}
	return &inflight{}
}

// freeInflight recycles a finished request and returns its frame to
// the pool. Callers must guarantee no reference survives — neither to
// the entry nor to its body: the host copies inline and aux bytes when
// a request is served, and a buffer dispatch's DMABody (the frame
// itself) is dead once the response line has been recalled. The
// DMA-response path, whose transmit closure retains the request, never
// releases.
//
//lhlint:hotpath
func (n *NIC) freeInflight(req *inflight) {
	n.Frames.Put(req.frame)
	*req = inflight{}
	n.ifFree = append(n.ifFree, req)
}

// newPendingLoad returns a deferred-load entry with its TryAgain callback
// bound once at allocation.
//
//lhlint:hotpath
func (n *NIC) newPendingLoad() *pendingLoad {
	if k := len(n.plFree); k > 0 {
		p := n.plFree[k-1]
		n.plFree = n.plFree[:k-1]
		return p
	}
	p := &pendingLoad{n: n}
	//lhlint:allow hotpath bound once per pooled entry; reused for every deferred load that rides it
	p.fire = func() { p.n.fireTryAgain(p) }
	return p
}

// freePendingLoad recycles an answered deferred load. The TryAgain timer
// must already be cancelled (removePending does both).
//
//lhlint:hotpath
func (n *NIC) freePendingLoad(p *pendingLoad) {
	p.respond = nil
	p.timer = nil
	n.plFree = append(n.plFree, p)
}

// newRecallPend returns a recall-parameter entry with its callback bound
// once at allocation.
//
//lhlint:hotpath
func (n *NIC) newRecallPend() *recallPend {
	if k := len(n.rcFree); k > 0 {
		r := n.rcFree[k-1]
		n.rcFree = n.rcFree[:k-1]
		return r
	}
	r := &recallPend{n: n}
	//lhlint:allow hotpath bound once per pooled entry; reused for every response recall that rides it
	r.fire = func(data []byte) { r.run(data) }
	return r
}

// run transmits the recalled response, then (for loads that triggered the
// recall) answers the waiting load. The entry is released first: answering
// the load can park a new deferred load or dispatch, either of which may
// recall again and need the pool.
//
//lhlint:hotpath
func (r *recallPend) run(data []byte) {
	n, serial := r.n, r.serial
	addr, region, svc, coreID := r.addr, r.region, r.svc, r.coreID
	respond := r.respond
	r.respond = nil
	n.rcFree = append(n.rcFree, r)
	n.transmitResponse(serial, data)
	if respond != nil {
		n.answerLoad(addr, region, svc, coreID, respond)
	}
}

// SchedUpdate is the kernel's push of scheduling state: core coreID now
// runs pid (0 = idle/kernel). The push itself is a posted coherent store;
// its cost is charged host-side (see Host).
func (n *NIC) SchedUpdate(coreID, pid int) {
	n.coreProc[coreID] = pid
	n.schedPush++
}

// SchedPushes reports how many scheduler-state pushes the NIC received.
func (n *NIC) SchedPushes() uint64 { return n.schedPush }

// QueueLen returns the backlog of a service.
func (n *NIC) QueueLen(svc uint32) int {
	if ep, ok := n.endpoints[svc]; ok {
		return len(ep.queue)
	}
	return 0
}

// Pollers returns how many channels are currently stalled on the service.
func (n *NIC) Pollers(svc uint32) int {
	if ep, ok := n.endpoints[svc]; ok {
		return len(ep.waiters)
	}
	return 0
}

// ---- mesi.Backing: the NIC as home agent ----

// ReadLine is invoked by the directory when a CPU load misses to a
// NIC-homed line. This is the heart of Fig. 4: the NIC may answer with a
// dispatch immediately, or defer the fill until a packet arrives.
// Exclusive fills (a CPU about to write a response) are answered
// immediately with an empty line — only poll loads defer.
//
//lhlint:hotpath
func (n *NIC) ReadLine(addr mesi.LineAddr, excl bool, respond func(data []byte)) {
	if excl {
		n.lineScr = markerLine(n.lineScr, n.lineSize(), MarkerIdle)
		respond(n.lineScr)
		return
	}
	region, svc, coreID, idx := splitAddr(addr)
	if region == regionClient {
		n.clientReadLine(addr, svc, coreID, idx, respond)
		return
	}

	// Seeing a load on one line of a pair means the CPU finished writing
	// a response into the other line (if one was outstanding): fetch it
	// exclusive and transmit, *then* consider answering this load (§5.1
	// ordering).
	var pairAddr mesi.LineAddr
	if region == regionKernel {
		pairAddr = kernelCtrl(coreID, 1-idx)
	} else {
		pairAddr = svcCtrl(svc, coreID, 1-idx)
	}
	if serial, ok := n.awaiting[pairAddr]; ok {
		delete(n.awaiting, pairAddr)
		r := n.newRecallPend()
		r.serial, r.addr, r.region, r.svc, r.coreID, r.respond =
			serial, addr, region, svc, coreID, respond
		n.dir.Recall(pairAddr, r.fire)
		return
	}
	n.answerLoad(addr, region, svc, coreID, respond)
}

// WriteLine receives dirty data written back to the home; response
// extraction happens in the Recall path, so nothing further is needed.
func (n *NIC) WriteLine(addr mesi.LineAddr, data []byte) {}

// answerLoad satisfies a control-line load from the service queue, or
// defers it.
//
//lhlint:hotpath
func (n *NIC) answerLoad(addr mesi.LineAddr, region int, svc uint32, coreID int, respond func([]byte)) {
	if region == regionService {
		ep := n.endpoints[svc]
		if ep == nil {
			// Load on an unregistered endpoint: answer TryAgain so the
			// core is not wedged.
			n.lineScr = markerLine(n.lineScr, n.lineSize(), MarkerTryAgain)
			respond(n.lineScr)
			return
		}
		if len(ep.queue) > 0 {
			req := ep.queue[0]
			ep.queue = ep.queue[1:]
			n.stats.FastDispatch++
			n.noteDispatch(req, false)
			n.emit(trace.Dispatch, uint64(req.svc), uint64(coreID), "fast-queued")
			n.dispatchTo(addr, req, false, respond)
			return
		}
		// Work-conserving reallocation: if this endpoint is idle while
		// another service has queued work and no poller, retire the core
		// right away instead of parking it for 15 ms (§5.2: the NIC
		// "requests the OS to reschedule processes in response to new
		// packets").
		if n.RetirePolicy && n.anyStarved() && len(ep.waiters) >= ep.minWorkers {
			n.stats.Retires++
			n.lineScr = markerLine(n.lineScr, n.lineSize(), MarkerRetire)
			respond(n.lineScr)
			return
		}
		// Nothing queued: defer (stalled load).
		n.defer_(addr, coreID, svc, false, respond)
		return
	}

	// Kernel line: any service's backlog can be dispatched here.
	if !n.NoKernelDispatch {
		if req, _ := n.oldestBacklog(); req != nil {
			n.stats.KernDispatch++
			n.noteDispatch(req, true)
			n.emit(trace.Dispatch, uint64(req.svc), uint64(coreID), "kernel-queued")
			n.dispatchTo(addr, req, true, respond)
			return
		}
	}
	n.defer_(addr, coreID, 0, true, respond)
}

// oldestBacklog pops the longest-waiting queued request across services
// that have no poller (services with pollers will be served by them).
// Ties break on service ID, keeping the choice deterministic. The scan
// walks the registration-ordered slice: endpoint sets are small and fixed
// after setup, and the slice avoids per-call map-iterator work on a path
// taken for every kernel-line load.
//
//lhlint:hotpath
func (n *NIC) oldestBacklog() (*inflight, *Endpoint) {
	var best *Endpoint
	var bestAt sim.Time
	for _, ep := range n.epOrder {
		if len(ep.queue) == 0 || len(ep.waiters) > 0 {
			continue
		}
		if best == nil || ep.queue[0].arriveAt < bestAt ||
			(ep.queue[0].arriveAt == bestAt && ep.Svc < best.Svc) {
			best = ep
			bestAt = ep.queue[0].arriveAt
		}
	}
	if best == nil {
		return nil, nil
	}
	req := best.queue[0]
	best.queue = best.queue[1:]
	return req, best
}

// defer_ parks a load until work (or the TryAgain timer) arrives.
//
//lhlint:hotpath
func (n *NIC) defer_(addr mesi.LineAddr, coreID int, svc uint32, kernel bool, respond func([]byte)) {
	for _, q := range n.pendingByCore {
		if q != nil && q.addr == addr {
			panicDuplicatePending(addr)
		}
	}
	if coreID >= len(n.pendingByCore) {
		n.pendingByCore = append(n.pendingByCore, make([]*pendingLoad, coreID+1-len(n.pendingByCore))...)
	}
	if n.pendingByCore[coreID] != nil {
		panicPendingBusy(coreID)
	}
	p := n.newPendingLoad()
	p.addr, p.coreID, p.svc, p.kernel, p.respond = addr, coreID, svc, kernel, respond
	p.timer = n.sim.After(n.cfg.TryAgainTimeout, "lauberhorn-tryagain", p.fire)
	n.pendingByCore[coreID] = p
	region, _, _, _ := splitAddr(addr)
	switch {
	case region == regionClient:
		// Client-channel waits have no endpoint bookkeeping.
	case kernel:
		n.kernelOrder = append(n.kernelOrder, p)
	default:
		ep := n.endpoints[svc]
		ep.waiters = append(ep.waiters, p)
	}
}

// removePending unlinks a deferred load (it is about to be answered).
func (n *NIC) removePending(p *pendingLoad) {
	n.pendingByCore[p.coreID] = nil
	if p.timer != nil {
		n.sim.Cancel(p.timer)
		p.timer = nil
	}
	region, _, _, _ := splitAddr(p.addr)
	if region == regionClient {
		return
	}
	if p.kernel {
		for i, q := range n.kernelOrder {
			if q == p {
				n.kernelOrder = append(n.kernelOrder[:i], n.kernelOrder[i+1:]...)
				break
			}
		}
		return
	}
	ep := n.endpoints[p.svc]
	for i, w := range ep.waiters {
		if w == p {
			ep.waiters = append(ep.waiters[:i], ep.waiters[i+1:]...)
			break
		}
	}
}

// fireTryAgain answers a deferred load with TryAgain — or Retire, when the
// retire policy decides this core is better spent elsewhere.
func (n *NIC) fireTryAgain(p *pendingLoad) {
	p.timer = nil
	n.removePending(p)
	marker := byte(MarkerTryAgain)
	region, _, _, _ := splitAddr(p.addr)
	if n.RetirePolicy && !p.kernel && region != regionClient {
		// If another service is starved (queued work, no poller) while
		// this endpoint idles above its worker floor, retire the core.
		// Note: the poller count still includes p at this point, so the
		// comparison is against the pre-removal population.
		if n.anyStarved() {
			ep := n.endpoints[p.svc]
			if len(ep.waiters)+1 > ep.minWorkers {
				marker = MarkerRetire
			}
		}
	}
	if marker == MarkerRetire {
		n.stats.Retires++
		n.emit(trace.Retire, uint64(p.coreID), uint64(p.svc), "timer")
	} else {
		n.stats.TryAgains++
		n.emit(trace.TryAgain, uint64(p.coreID), uint64(p.svc), "")
	}
	respond := p.respond
	n.freePendingLoad(p)
	n.lineScr = markerLine(n.lineScr, n.lineSize(), marker)
	respond(n.lineScr)
}

// panicDuplicatePending and panicPendingBusy keep fmt boxing off defer_'s
// hot path; neither returns.
func panicDuplicatePending(addr mesi.LineAddr) {
	panic(fmt.Sprintf("core: duplicate pending load on %#x", uint64(addr)))
}

func panicPendingBusy(coreID int) {
	panic(fmt.Sprintf("core: core %d already has a pending load", coreID))
}

// anyStarved reports whether any pollerless service has queued work.
//
//lhlint:hotpath
func (n *NIC) anyStarved() bool {
	for _, ep := range n.epOrder {
		if len(ep.queue) > 0 && len(ep.waiters) == 0 {
			return true
		}
	}
	return false
}

// FlushChannel immediately recalls and transmits any response parked in
// the (svc, core) channel. The OS calls it on the deschedule path, before
// a worker leaves its user loop: without it, a preemption that lands
// between writing a response and loading the paired line would strand the
// response in the descheduled core's cache until the channel is next used
// — a race surfaced by the handoff model in internal/check. The worker
// only yields between requests, so an awaiting entry here always has its
// response written.
func (n *NIC) FlushChannel(svc uint32, coreID int) {
	for idx := 0; idx < 2; idx++ {
		addr := svcCtrl(svc, coreID, idx)
		serial, ok := n.awaiting[addr]
		if !ok {
			continue
		}
		delete(n.awaiting, addr)
		r := n.newRecallPend()
		r.serial = serial
		n.dir.Recall(addr, r.fire)
	}
}

// Kick immediately unblocks a deferred load on the given core with
// TryAgain — the OS side of descheduling a stalled process (§5.1: IPI,
// then "Lauberhorn can send the process a TryAgain message, unblocking
// it").
func (n *NIC) Kick(coreID int) bool {
	p := n.pendingOn(coreID)
	if p == nil {
		return false
	}
	n.removePending(p)
	n.stats.TryAgains++
	respond := p.respond
	n.freePendingLoad(p)
	n.lineScr = markerLine(n.lineScr, n.lineSize(), MarkerTryAgain)
	respond(n.lineScr)
	return true
}

// RetireCore answers the pending load on coreID with Retire (explicit OS-
// requested core reclamation, e.g. for a non-RPC process).
func (n *NIC) RetireCore(coreID int) bool {
	p := n.pendingOn(coreID)
	if p == nil {
		return false
	}
	n.removePending(p)
	n.stats.Retires++
	respond := p.respond
	n.freePendingLoad(p)
	n.lineScr = markerLine(n.lineScr, n.lineSize(), MarkerRetire)
	respond(n.lineScr)
	return true
}

// dispatchTo answers a load with a request dispatch. kernel selects the
// KDispatch marker (the core must switch processes first); in that case
// the response is expected on the service channel's line 0, because the
// core leaves the kernel loop and enters the service's user loop.
func (n *NIC) dispatchTo(addr mesi.LineAddr, req *inflight, kernel bool, respond func([]byte)) {
	ep := n.endpoints[req.svc]
	mi := ep.methods[req.method]
	marker := byte(MarkerDispatch)
	respAddr := addr
	if kernel {
		marker = MarkerKDispatch
		_, _, coreID, _ := splitAddr(addr)
		respAddr = svcCtrl(req.svc, coreID, 0)
	}
	n.awaiting[respAddr] = req.serial
	if req.viaDMA {
		// §6 large-message fallback: DMA the body to a host buffer, then
		// answer the load with a buffer descriptor instead of inline
		// data. The fill stays deferred for the transfer's duration, so
		// the line must be freshly allocated (it parks across simulated
		// time while the scratch gets rebuilt).
		inline := []byte(nil)
		line, _ := dispatchLine(nil, n.lineSize(), marker|markerBufFlag, req.svc, req.method,
			req.serial, mi.code, mi.data, inline)
		// dispatchLine zeroed BodyLen from the empty inline slice;
		// rewrite it with the true buffer length.
		line[31] = byte(len(req.body) >> 8)
		line[32] = byte(len(req.body))
		//lhlint:allow hotpath DMA fallback path, not the cache-line fast path; the closure models the pending transfer
		n.sim.After(n.cfg.DMA.DMATransfer(len(req.body)), "lh-dma-in", func() {
			respond(line)
		})
		return
	}
	n.lineScr, _ = dispatchLine(n.lineScr, n.lineSize(), marker, req.svc, req.method, req.serial,
		mi.code, mi.data, req.body)
	// Body bytes beyond the inline chunk arrive via aux lines; the host
	// charges the streaming cost and fetches them with AuxBody. The
	// responder copies the line before returning (directory deliver), so
	// the scratch is free for the next dispatch.
	respond(n.lineScr)
}

// lineSize returns the coherence granule.
func (n *NIC) lineSize() int { return n.cfg.Fabric.CacheLineSize }

// AuxBody returns the part of a request body that did not fit inline —
// the contents of the request's aux cache lines.
func (n *NIC) AuxBody(serial uint64) []byte {
	req := n.inflights[serial]
	if req == nil {
		return nil
	}
	inline := n.lineSize() - dispatchHeaderLen
	if len(req.body) <= inline {
		return nil
	}
	return req.body[inline:]
}

// AuxLines returns how many aux cache lines a body of the given length
// occupies beyond the control line.
func (n *NIC) AuxLines(bodyLen int) int {
	inline := n.lineSize() - dispatchHeaderLen
	if bodyLen <= inline {
		return 0
	}
	return n.cfg.Fabric.Lines(bodyLen - inline)
}

// WriteAuxResponse stores the response body overflow (the CPU's stores to
// aux lines); timing is charged by the host loop.
func (n *NIC) WriteAuxResponse(serial uint64, rest []byte) {
	cp := make([]byte, len(rest))
	copy(cp, rest)
	n.auxOut[serial] = cp
}

// WriteDMAResponse places a large response body in a host DMA buffer; the
// NIC pulls it with its DMA engine before transmitting (§6 fallback).
func (n *NIC) WriteDMAResponse(serial uint64, body []byte) {
	cp := make([]byte, len(body))
	copy(cp, body)
	n.auxOut[serial] = cp
	if req := n.inflights[serial]; req != nil {
		req.dmaResp = true
	}
}

// DMABody returns the full request body for a buffer-dispatched request
// (the contents of the host DMA buffer after the NIC's transfer).
func (n *NIC) DMABody(serial uint64) []byte {
	req := n.inflights[serial]
	if req == nil {
		return nil
	}
	return req.body
}

// ---- receive path ----

// DeliverFrame implements fabric.FramePort: run the decode pipeline, then
// dispatch (Fig. 3).
//
//lhlint:hotpath
func (n *NIC) DeliverFrame(frame []byte) {
	// The pipeline accepts a new packet each initiation interval; model
	// the engine as busy until the current packet clears the slowest
	// stage.
	start := n.sim.Now()
	if n.decodeBusy > start {
		start = n.decodeBusy
	}
	dec := &n.rxScr
	if err := wire.ParseUDPInto(frame, &dec.d); err != nil {
		n.stats.RxBad++
		n.Frames.Put(frame)
		return
	}
	if dec.d.IP.Dst != n.cfg.Local.IP {
		// Switched fabrics flood frames for unlearned MACs; not ours.
		n.stats.RxFiltered++
		n.Frames.Put(frame)
		return
	}
	if err := rpc.DecodeInto(dec.d.Payload, &dec.msg); err != nil {
		n.stats.RxBad++
		n.Frames.Put(frame)
		return
	}
	lat := n.cfg.HeaderParse + n.cfg.DecodeFixed + sim.Time(len(dec.msg.Body))*n.cfg.DecodePerByte
	if dec.msg.Flags&rpc.FlagEncrypted != 0 {
		lat += sim.Time(len(dec.msg.Body)) * n.cfg.DecryptPerByte
	}
	if dec.msg.Flags&rpc.FlagCompressed != 0 {
		lat += sim.Time(len(dec.msg.Body)) * n.cfg.DecompressPerByte
	}
	n.decodeBusy = start + lat
	// Completion times are monotone (each packet starts no earlier than
	// the previous decodeBusy), so a FIFO queue plus one prebound callback
	// replaces a per-packet closure. The queue holds values, not pointers:
	// staging a packet is a copy into recycled slice capacity, not a heap
	// allocation.
	n.decq = append(n.decq, *dec)
	n.sim.At(start+lat, "lauberhorn-decoded", n.decFn)
}

// decoded is one packet staged by value between the decode pipeline and
// dispatch; Datagram.Payload and Message.Body alias the delivered frame,
// Datagram.Frame.
type decoded struct {
	d   wire.Datagram
	msg rpc.Message
}

// decodeDone dispatches the oldest staged packet; it is the single bound
// callback behind every "lauberhorn-decoded" event. The head slot is
// copied into dispScr (not referenced in place) so a dispatch path that
// stages new packets can grow decq without invalidating what we're
// dispatching.
//
//lhlint:hotpath
func (n *NIC) decodeDone() {
	n.dispScr = n.decq[n.decHead]
	n.decq[n.decHead] = decoded{}
	n.decHead++
	if n.decHead == len(n.decq) {
		n.decq = n.decq[:0]
		n.decHead = 0
	}
	if n.dispScr.msg.IsRequest() {
		n.admit(&n.dispScr.d, &n.dispScr.msg)
	} else {
		// The call keeps a copy of the body, so the frame dies here.
		n.deliverClientResponse(&n.dispScr.msg)
		n.Frames.Put(n.dispScr.d.Frame)
	}
}

// admit demultiplexes a decoded request to its endpoint and dispatches or
// queues it.
//
//lhlint:hotpath
func (n *NIC) admit(d *wire.Datagram, msg *rpc.Message) {
	ep := n.byPort[d.UDP.DstPort]
	if ep == nil || ep.Svc != msg.Service {
		n.stats.RxBad++
		n.Frames.Put(d.Frame)
		return
	}
	if _, ok := ep.methods[msg.Method]; !ok {
		// Unknown method: NIC answers directly with an error response —
		// zero host involvement.
		n.stats.RxFrames++
		n.txRPC(wire.Endpoint{MAC: d.Eth.Src, IP: d.IP.Src, Port: d.UDP.SrcPort},
			rpc.EncodeResponse(msg.Service, msg.Method, msg.ID, rpc.StatusNoSuchMethod, nil))
		n.Frames.Put(d.Frame)
		return
	}
	n.stats.RxFrames++
	// The body aliases the delivered frame, which the inflight entry owns
	// until freeInflight returns it to the pool, so the request references
	// the payload in place for its whole inflight lifetime instead of
	// copying it.
	req := n.newInflight()
	req.serial = n.nextSerial
	req.svc = msg.Service
	req.method = msg.Method
	req.rpcID = msg.ID
	req.body = msg.Body
	req.frame = d.Frame
	req.client = wire.Endpoint{MAC: d.Eth.Src, IP: d.IP.Src, Port: d.UDP.SrcPort}
	req.arriveAt = n.sim.Now()
	req.viaDMA = n.cfg.DMAThreshold > 0 && len(msg.Body) >= n.cfg.DMAThreshold
	n.nextSerial++
	n.inflights[req.serial] = req
	n.noteArrival(req.svc)
	n.emit(trace.RxFrame, uint64(req.svc), req.serial, "")

	// Fast path: a core is stalled on this service's control line (FIFO
	// over the endpoint's waiting channels).
	if len(ep.waiters) > 0 {
		p := ep.waiters[0]
		n.removePending(p)
		n.stats.FastDispatch++
		n.noteDispatch(req, false)
		n.emit(trace.Dispatch, uint64(req.svc), uint64(p.coreID), "fast")
		addr, respond := p.addr, p.respond
		n.freePendingLoad(p)
		n.dispatchTo(addr, req, false, respond)
		return
	}
	// Medium path: a core's kernel loop is stalled; hand it the request
	// with a process-switch marker. FIFO over kernel pollers.
	if len(n.kernelOrder) > 0 && !n.NoKernelDispatch {
		p := n.kernelOrder[0]
		n.removePending(p)
		n.stats.KernDispatch++
		n.noteDispatch(req, true)
		n.emit(trace.Dispatch, uint64(req.svc), uint64(p.coreID), "kernel")
		addr, respond := p.addr, p.respond
		n.freePendingLoad(p)
		n.dispatchTo(addr, req, true, respond)
		return
	}
	// Slow path: queue on the endpoint and notify the OS in software.
	if len(ep.queue) >= n.cfg.SvcQueueDepth {
		n.stats.RxDropped++
		n.telemetryFor(req.svc).Dropped++
		delete(n.inflights, req.serial)
		n.freeInflight(req)
		return
	}
	ep.queue = append(ep.queue, req)
	n.telemetryFor(req.svc).Queued++
	n.stats.Backlog.Record(int64(len(ep.queue)))
	if len(ep.queue) == 1 && len(ep.waiters) == 0 && n.NotifyOS != nil {
		n.stats.SoftNotify++
		n.NotifyOS(ep.Svc)
	}
	if n.OnBacklog != nil && len(ep.queue) == n.cfg.BacklogHighWater {
		n.OnBacklog(ep.Svc)
	}
}

// ---- transmit path ----

// transmitResponse parses the recalled response line, merges aux bytes,
// and sends the RPC response to the client.
//
//lhlint:hotpath
func (n *NIC) transmitResponse(serial uint64, line []byte) {
	req := n.inflights[serial]
	if req == nil {
		return // duplicate recall or cancelled request
	}
	pr, ok := parseResponseLine(line)
	if !ok || pr.Serial != serial {
		// The CPU never wrote a response (e.g. it was descheduled before
		// finishing). Keep the inflight; the response will be recovered
		// when the request is re-dispatched.
		return
	}
	delete(n.inflights, serial)
	body := pr.Inline
	if aux := n.auxOut[serial]; aux != nil {
		body = append(append([]byte{}, pr.Inline...), aux...)
		delete(n.auxOut, serial)
	}
	if len(body) > pr.BodyLen {
		body = body[:pr.BodyLen]
	}
	if pr.Buf && req.dmaResp {
		// Pull the buffer out of host memory before transmitting. The
		// payload must be freshly allocated here: the closure holds it
		// until the DMA completes, so it cannot come from encScr.
		payload := rpc.EncodeResponse(req.svc, req.method, req.rpcID, pr.Status, body)
		//lhlint:allow hotpath DMA-buffer fallback path, not the cache-line fast path; the closure models the pending descriptor
		n.sim.After(n.cfg.DMA.DMARead+n.cfg.DMA.DMATransfer(len(body)), "lh-dma-out", func() {
			n.txRPC(req.client, payload)
		})
		return
	}
	// Fast path: encode into the reused scratch buffer — txRPC copies the
	// payload into the frame before returning — then recycle the inflight
	// (the DMA path above must not: its closure holds req until DMA-out).
	n.encScr = rpc.AppendMessage(n.encScr[:0],
		rpc.Header{Kind: rpc.KindResponse, Service: req.svc, Method: req.method, ID: req.rpcID, Status: pr.Status}, body)
	n.txRPC(req.client, n.encScr)
	n.freeInflight(req)
}

// txRPC frames and transmits an RPC message after the NIC TX build cost.
// Built frames wait in a FIFO staging queue; TxBuild is constant, so the
// single prebound txFn fires them in schedule order without allocating a
// closure per packet.
//
//lhlint:hotpath
func (n *NIC) txRPC(dst wire.Endpoint, payload []byte) {
	if n.link == nil {
		panic("core: NIC has no link")
	}
	n.ipID++
	frame, err := n.Frames.BuildUDP(n.cfg.Local, dst, n.ipID, payload)
	if err != nil {
		panic(fmt.Sprintf("core: tx: %v", err))
	}
	n.txq = append(n.txq, frame)
	n.sim.After(n.cfg.TxBuild, "lauberhorn-tx", n.txFn)
}

// txFire sends the oldest staged frame onto the link. A carrier check
// guards the wire (fault injection can down the access link): frames
// staged toward a dead link are dropped at the NIC, as a real MAC does,
// rather than burning link-layer state.
//
//lhlint:hotpath
func (n *NIC) txFire() {
	frame := n.txq[n.txHead]
	n.txq[n.txHead] = nil
	n.txHead++
	if n.txHead == len(n.txq) {
		n.txq = n.txq[:0]
		n.txHead = 0
	}
	if !n.link.Up() {
		n.stats.TxNoCarrier++
		n.Frames.Put(frame)
		return
	}
	n.stats.TxFrames++
	n.emit(trace.TxFrame, uint64(len(frame)), 0, "")
	n.link.Send(n.side, frame)
}
