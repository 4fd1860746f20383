package fabric

import (
	"math"

	"lauberhorn/internal/sim"
)

// Fluid-flow fast path: transfers big enough that per-packet events
// would drown the event queue are carried as fluid flows instead — the
// same representation switch the Hybrid stack makes at 4 KiB, applied
// one level up, to the link. A flow is a budget of wire bytes that
// drains at the link rate, shared equally among the direction's active
// flows; the only events are the membership changes (start, earliest
// completion, carrier transitions), so a multi-megabyte transfer costs
// a handful of events instead of one per frame. At completion the
// receiver gets the whole payload re-materialized in one DeliverFlow
// call, Lookahead after the last byte leaves the sender — the same
// last-byte arrival instant the per-packet path would produce.
//
// Interactions with the packet path:
//   - Packet frames keep strict priority: a fluid backlog never delays a
//     frame's serialization (the approximation that keeps RPC latency
//     tables identical whether or not background flows are armed).
//   - The direction's fluid backlog does feed the ECN decision: a frame
//     sent while flows are queued sees their drain time added to its
//     backlog before the ECNThreshold comparison, so transports react to
//     fluid congestion exactly as to packet congestion.
//   - A carrier cut pauses the direction's flows with their remaining
//     bytes intact (the bits were never offered to the wire), and a
//     restore resumes them — flow bytes in always equal flow bytes out.
//
// Determinism: flow progress is settled only at events (membership or
// carrier changes), so remaining bytes are a pure function of the event
// history, like every other piece of simulator state.

// FlowPort receives re-materialized fluid transfers — the flow-path
// analogue of FramePort.
type FlowPort interface {
	// DeliverFlow hands the whole payload of a completed transfer to the
	// receiver at the current simulated time.
	DeliverFlow(payload int64)
}

// flowEps absorbs the sub-byte residue the ceil-rounded completion
// event leaves behind when it settles a finished flow.
const flowEps = 1e-6

// flow is one in-flight fluid transfer.
type flow struct {
	// remaining is the wire bytes not yet serialized.
	remaining float64
	payload   int64
	port      FlowPort
}

// flowState is one direction's fluid scheduler, allocated on first use
// so links without flows pay nothing.
type flowState struct {
	l    *Link
	from int
	// active holds in-flight flows in arrival order (the deterministic
	// iteration order every settle uses).
	active []*flow
	// lastAt is the instant progress was last settled to.
	lastAt sim.Time
	// ev is the pending earliest-completion event.
	ev    *sim.Event
	finFn func()
	delFn func()
	// done queues completed flows between the finish event and their
	// delivery Lookahead later, oldest first.
	done               []*flow
	started, completed uint64
	bytesIn, bytesOut  int64
}

// settle advances every active flow to now at the current equal share
// of the link rate. While the carrier is down no bytes drain.
func (fs *flowState) settle() {
	now := fs.l.s.Now()
	if now > fs.lastAt && !fs.l.down && len(fs.active) > 0 {
		adv := fs.l.params.Bandwidth / float64(len(fs.active)) *
			(float64(now-fs.lastAt) / float64(sim.Nanosecond))
		for _, f := range fs.active {
			f.remaining -= adv
		}
	}
	fs.lastAt = now
}

// reschedule points ev at the earliest completion under the current
// share; call after every settle that changed membership or carrier.
func (fs *flowState) reschedule() {
	if fs.ev != nil {
		fs.l.s.Cancel(fs.ev)
		fs.ev = nil
	}
	if fs.l.down || len(fs.active) == 0 {
		return
	}
	min := fs.active[0].remaining
	for _, f := range fs.active[1:] {
		if f.remaining < min {
			min = f.remaining
		}
	}
	if min < 0 {
		min = 0
	}
	per := fs.l.params.Bandwidth / float64(len(fs.active))
	d := sim.Time(math.Ceil(min / per * float64(sim.Nanosecond)))
	fs.ev = fs.l.s.At(fs.lastAt+d, "flow-finish", fs.finFn)
}

// finish fires at the earliest completion: settle, hand every drained
// flow to the delivery queue (DeliverFlow runs Lookahead later, when the
// last byte reaches the far side), and reschedule the rest.
func (fs *flowState) finish() {
	fs.ev = nil
	fs.settle()
	now := fs.lastAt
	keep := fs.active[:0]
	for _, f := range fs.active {
		if f.remaining <= flowEps {
			fs.completed++
			fs.bytesOut += f.payload
			fs.done = append(fs.done, f)
			fs.l.s.At(now+fs.l.params.Lookahead(), "flow-deliver", fs.delFn)
		} else {
			keep = append(keep, f)
		}
	}
	fs.active = keep
	fs.reschedule()
}

// deliverDone pops the oldest completed flow and hands its payload to
// the receiver. Completion times per direction are non-decreasing, so
// head-pop order matches delivery order (the inflight-queue argument).
func (fs *flowState) deliverDone() {
	f := fs.done[0]
	fs.done = fs.done[1:]
	if len(fs.done) == 0 {
		fs.done = nil
	}
	f.port.DeliverFlow(f.payload)
}

// carrierDown settles progress up to the cut (the carrier flag is still
// up when this runs) and cancels the pending completion.
func (fs *flowState) carrierDown() {
	fs.settle()
	if fs.ev != nil {
		fs.l.s.Cancel(fs.ev)
		fs.ev = nil
	}
}

// carrierUp resumes the paused flows from their conserved remainders.
func (fs *flowState) carrierUp() {
	fs.lastAt = fs.l.s.Now()
	fs.reschedule()
}

// backlog returns the direction's un-serialized fluid bytes as drain
// time at full link rate — the term the packet path adds to its queue
// depth before the ECN comparison. The active flows jointly drain at
// the full rate, so progress since the last settle is subtracted
// without mutating it.
func (fs *flowState) backlog(now sim.Time) sim.Time {
	if len(fs.active) == 0 || fs.l.down {
		return 0
	}
	var rem float64
	for _, f := range fs.active {
		rem += f.remaining
	}
	rem -= fs.l.params.Bandwidth * (float64(now-fs.lastAt) / float64(sim.Nanosecond))
	if rem <= 0 {
		return 0
	}
	return sim.Time(rem / fs.l.params.Bandwidth * float64(sim.Nanosecond))
}

// SendFlow starts a fluid transfer of wireBytes on the wire delivering
// payload bytes of application data (the caller accounts per-packet
// framing overhead into wireBytes, so fluid and per-packet transfers of
// the same payload occupy the wire for the same time). The payload
// reaches port.DeliverFlow in one call, Lookahead after the last wire
// byte serializes. A flow offered while the carrier is down starts
// paused and drains once carrier returns.
func (l *Link) SendFlow(from int, wireBytes, payload int64, port FlowPort) {
	if from != 0 && from != 1 {
		panicBadSide(from)
	}
	if l.ports[1-from] == nil {
		panic("fabric: link not attached")
	}
	if port == nil {
		panic("fabric: nil flow port")
	}
	if payload <= 0 || wireBytes < payload {
		panic("fabric: flow needs payload > 0 and wireBytes >= payload")
	}
	fs := l.flows[from]
	if fs == nil {
		fs = &flowState{l: l, from: from, lastAt: l.s.Now()}
		fs.finFn = fs.finish
		fs.delFn = fs.deliverDone
		l.flows[from] = fs
	}
	fs.settle()
	fs.active = append(fs.active, &flow{remaining: float64(wireBytes), payload: payload, port: port})
	fs.started++
	fs.bytesIn += payload
	fs.reschedule()
}

// FlowStats reports the given direction's fluid-flow counters: transfers
// started and completed, and payload bytes in (offered) and out
// (delivered). In minus out is exactly the payload still in flight.
func (l *Link) FlowStats(from int) (started, completed uint64, bytesIn, bytesOut int64) {
	if from != 0 && from != 1 {
		panicBadSide(from)
	}
	fs := l.flows[from]
	if fs == nil {
		return 0, 0, 0, 0
	}
	return fs.started, fs.completed, fs.bytesIn, fs.bytesOut
}

// FlowBacklog reports the given direction's un-serialized fluid bytes as
// drain time at the full link rate — the quantity the ECN decision adds
// to the packet backlog.
func (l *Link) FlowBacklog(from int) sim.Time {
	if from != 0 && from != 1 {
		panicBadSide(from)
	}
	fs := l.flows[from]
	if fs == nil {
		return 0
	}
	return fs.backlog(l.s.Now())
}
