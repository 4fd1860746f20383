package transport

import (
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Retry scheme: the requester arms a per-request retransmit timer with
// exponential backoff and a bounded retransmit budget; the responder
// suppresses duplicates (dropping retransmits of requests still in
// service) and replays cached responses for requests it already
// answered, so a retransmit never re-executes the service.
const (
	// retryRTO is the initial retransmit timeout. Doubles per attempt.
	retryRTO = sim.Millisecond
	// retryBackoff is the per-attempt RTO multiplier.
	retryBackoff = 2
	// retryMaxRetransmits bounds retransmits per request; after the
	// budget the request is abandoned (counted as a GiveUp).
	retryMaxRetransmits = 4
	// retryDoneCap bounds the responder's answered-request cache; the
	// oldest entries are evicted FIFO.
	retryDoneCap = 4096
)

func init() {
	Register(Entry{Kind: Retry, Name: "retry", Label: "Retry (timeout/rtx)", New: newRetry})
}

// retryDup is the responder-side lifecycle of one request key.
type retryDup uint8

const (
	dupInService retryDup = 1 + iota // delivered to the service, response not yet seen
	dupDone                          // response observed and cached
)

type retryT struct {
	p     Params
	link  *fabric.Link
	side  int
	inner func([]byte)
	st    Stats

	dg  wire.Datagram
	msg rpc.Message

	// requester state: pending requests by RPC ID (IDs are unique per
	// machine — each generator mints its own sequence).
	pend     map[uint64]*retryPend
	pendFree []*retryPend
	bufs     bufList

	// responder state: request lifecycle and cached responses, with a
	// FIFO ring bounding the done set.
	seen     map[reqKey]retryDup
	cache    map[reqKey][]byte
	doneRing []reqKey
	doneHead int
}

// retryPend is one tracked outbound request: a master copy of the frame
// for retransmission plus its timer, pooled with a prebound callback.
type retryPend struct {
	t      *retryT
	id     uint64
	master []byte
	tries  int
	rto    sim.Time
	ev     *sim.Event
	fire   func()
}

func newRetry(p Params) Instance {
	return &retryT{
		p:     p,
		pend:  make(map[uint64]*retryPend),
		seen:  make(map[reqKey]retryDup),
		cache: make(map[reqKey][]byte),
	}
}

func (t *retryT) WrapPort(inner fabric.FramePort) fabric.FramePort {
	t.inner = inner.DeliverFrame
	return t
}

func (t *retryT) BindLink(l *fabric.Link, side int) {
	t.link = l
	t.side = side
	l.SetTap(side, t.onTx)
}

func (t *retryT) Stats() Stats { return t.st }

// onTx is the transmit tap: record outbound requests for retransmit,
// cache outbound responses for replay. Frames always pass through.
//
//lhlint:hotpath
func (t *retryT) onTx(frame []byte) bool {
	if wire.ParseUDPInto(frame, &t.dg) != nil || rpc.DecodeInto(t.dg.Payload, &t.msg) != nil {
		return true
	}
	switch t.msg.Kind {
	case rpc.KindRequest:
		t.trackRequest(frame)
	case rpc.KindResponse:
		t.cacheResponse(frame)
	}
	return true
}

// trackRequest arms the retransmit state for a first-send request
// (retransmits re-enter via Inject and never reach the tap).
//
//lhlint:hotpath
func (t *retryT) trackRequest(frame []byte) {
	id := t.msg.ID
	if _, dup := t.pend[id]; dup {
		return
	}
	pr := t.getPend()
	pr.id = id
	pr.master = t.bufs.get(len(frame))
	copy(pr.master, frame)
	pr.tries = 0
	pr.rto = retryRTO
	pr.ev = t.p.Sim.After(pr.rto, "transport-retry-rto", pr.fire)
	t.pend[id] = pr
}

//lhlint:hotpath
func (t *retryT) getPend() *retryPend {
	if last := len(t.pendFree) - 1; last >= 0 {
		pr := t.pendFree[last]
		t.pendFree[last] = nil
		t.pendFree = t.pendFree[:last]
		return pr
	}
	return t.newPend()
}

func (t *retryT) newPend() *retryPend {
	pr := &retryPend{t: t}
	pr.fire = pr.timeout
	return pr
}

//lhlint:hotpath
func (t *retryT) putPend(pr *retryPend) {
	if pr.master != nil {
		t.bufs.put(pr.master)
		pr.master = nil
	}
	pr.ev = nil
	t.pendFree = append(t.pendFree, pr)
}

// timeout fires when a request's RTO expires with no response:
// retransmit a pooled Clone of the master frame (donated to the wire via
// Inject, so its terminal consumer returns it) and back off, or give up
// once the budget is spent.
//
//lhlint:hotpath
func (pr *retryPend) timeout() {
	t := pr.t
	if pr.tries >= retryMaxRetransmits {
		t.st.GiveUps++
		delete(t.pend, pr.id)
		t.putPend(pr)
		return
	}
	pr.tries++
	t.st.Retransmits++
	t.link.Inject(t.side, t.p.Pool.Clone(pr.master))
	pr.rto *= retryBackoff
	pr.ev = t.p.Sim.After(pr.rto, "transport-retry-rto", pr.fire)
}

// DeliverFrame is the receive interposer: responses complete pending
// requests; inbound requests pass the duplicate filter.
//
//lhlint:hotpath
func (t *retryT) DeliverFrame(frame []byte) {
	if wire.ParseUDPInto(frame, &t.dg) != nil || rpc.DecodeInto(t.dg.Payload, &t.msg) != nil {
		t.inner(frame)
		return
	}
	switch t.msg.Kind {
	case rpc.KindResponse:
		t.completeRequest()
		t.inner(frame)
	case rpc.KindRequest:
		if t.filterDup(frame) {
			t.inner(frame)
		}
	default:
		t.inner(frame)
	}
}

//lhlint:hotpath
func (t *retryT) completeRequest() {
	pr, ok := t.pend[t.msg.ID]
	if !ok {
		return
	}
	t.p.Sim.Cancel(pr.ev)
	delete(t.pend, pr.id)
	t.putPend(pr)
}

// filterDup reports whether an inbound request should reach the
// service. Duplicates of in-service requests are suppressed; duplicates
// of answered requests are replayed from the cache as a pooled Clone.
// Either way the transport is the duplicate's terminal consumer.
//
//lhlint:hotpath
func (t *retryT) filterDup(frame []byte) bool {
	k := reqKey{ip: t.dg.IP.Src.Uint32(), port: t.dg.UDP.SrcPort, id: t.msg.ID}
	switch t.seen[k] {
	case dupInService:
		t.st.DupsSuppressed++
		t.p.Pool.Put(frame)
		return false
	case dupDone:
		t.st.Replays++
		t.link.Inject(t.side, t.p.Pool.Clone(t.cache[k]))
		t.p.Pool.Put(frame)
		return false
	}
	t.seen[k] = dupInService
	return true
}

// cacheResponse moves a request to the done state as its response
// leaves, keeping a replay copy. Responses the NIC refuses to transmit
// (downed access link) never reach the tap and leave the request
// in-service; experiments only fault fabric-interior links, where the
// tap always observes the response first.
//
//lhlint:hotpath
func (t *retryT) cacheResponse(frame []byte) {
	k := reqKey{ip: t.dg.IP.Dst.Uint32(), port: t.dg.UDP.DstPort, id: t.msg.ID}
	if t.seen[k] != dupInService {
		return
	}
	t.seen[k] = dupDone
	c := t.bufs.get(len(frame))
	copy(c, frame)
	t.cache[k] = c
	t.doneRing = append(t.doneRing, k)
	if len(t.doneRing)-t.doneHead > retryDoneCap {
		t.evictDone()
	}
}

// evictDone retires the oldest done entry and compacts the ring once
// the dead prefix reaches the cap.
func (t *retryT) evictDone() {
	k := t.doneRing[t.doneHead]
	t.doneRing[t.doneHead] = reqKey{}
	t.doneHead++
	if buf, ok := t.cache[k]; ok {
		t.bufs.put(buf)
		delete(t.cache, k)
	}
	delete(t.seen, k)
	if t.doneHead >= retryDoneCap {
		n := copy(t.doneRing, t.doneRing[t.doneHead:])
		t.doneRing = t.doneRing[:n]
		t.doneHead = 0
	}
}
