package fabric

import (
	"fmt"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/sim/shard"
	"lauberhorn/internal/wire"
)

// NetParams describes an Ethernet link between two hosts (through one
// switch, as in a rack-scale RPC deployment).
type NetParams struct {
	Name string
	// Bandwidth in bytes per nanosecond (12.5 = 100 Gb/s).
	Bandwidth float64
	// PropDelay is one-way propagation (cabling) delay.
	PropDelay sim.Time
	// SwitchDelay is the store-and-forward/switching delay per hop.
	SwitchDelay sim.Time
	// QueueLimit bounds each direction's transmit backlog: a frame whose
	// serialization could not start within QueueLimit of its send time is
	// tail-dropped (counted per direction). Zero means an unbounded
	// queue, the pre-contention behavior every existing experiment keeps.
	QueueLimit sim.Time
	// ECNThreshold is the transmit-backlog depth (as queueing delay)
	// beyond which an accepted frame is CE-marked in its IP header —
	// the switch-egress marking half of a DCTCP-style loop. Zero
	// disables marking, the behavior every pre-transport experiment
	// keeps. Marks are counted per direction beside drops.
	ECNThreshold sim.Time
}

// Net100G is a 100 Gb/s link through a single cut-through switch, typical
// of the rack-scale setting the paper targets.
var Net100G = NetParams{
	Name:        "100GbE",
	Bandwidth:   12.5,
	PropDelay:   400 * sim.Nanosecond,
	SwitchDelay: 250 * sim.Nanosecond,
}

// OneWay returns the end-to-end one-way latency for a frame of n bytes:
// serialization plus propagation plus switching.
func (n NetParams) OneWay(bytes int) sim.Time {
	return sim.PerByte(bytes, n.Bandwidth) + n.PropDelay + n.SwitchDelay
}

// Lookahead is the guaranteed minimum delay between a frame's last
// transmitted byte and its delivery on the far side: propagation plus
// switching. It is the conservative-window bound sharded execution uses —
// a frame sent at instant T cannot take effect across the link before
// T + Lookahead, whatever the serialization backlog.
func (n NetParams) Lookahead() sim.Time {
	return n.PropDelay + n.SwitchDelay
}

// FramePort is anything that can accept a delivered Ethernet frame — both
// NIC models implement it.
type FramePort interface {
	// DeliverFrame hands a received frame to the NIC at the current
	// simulated time. The NIC owns the slice.
	DeliverFrame(frame []byte)
}

// delivery is one in-flight frame: the frame bytes plus the deliver
// function bound to the peer port at send time (so ReplacePort never
// redirects frames already on the wire). txStart and ev exist for the
// carrier-cut purge on unkeyed directions: txStart says whether the
// frame's serialization had begun when the carrier dropped, and ev is
// the scheduled delivery event to cancel when it had not.
type delivery struct {
	deliver func([]byte)
	frame   []byte
	txStart sim.Time
	ev      *sim.Event
}

// Link is a full-duplex point-to-point Ethernet link between two ports.
// Each direction serializes frames FIFO at the link bandwidth; a frame
// arrives PropDelay+SwitchDelay after its last byte leaves the sender.
//
// A link normally lives on one Sim. An inter-switch link of a sharded
// topology is instead split (Split): each side lives on its own shard's
// Sim, and deliveries cross through a shard.Channel per direction rather
// than a locally scheduled event. All serialization, drop, and counter
// state was already per-side, so splitting changes only the scheduling
// seam — the carrier flag becomes a per-side replica toggled by
// identically timed events on both shards.
type Link struct {
	// sims[i] is the Sim side i lives on; both entries are the same Sim
	// unless the link has been Split across shards.
	sims   [2]*sim.Sim
	params NetParams
	ports  [2]FramePort
	// deliverTo[i] is ports[i].DeliverFrame bound once at Attach or
	// ReplacePort time, so Send stages a plain func value instead of
	// making an interface call (and a closure) per frame.
	deliverTo [2]func([]byte)
	// inflight[i] queues frames sent from side i, oldest first; arrival
	// times per direction are non-decreasing and the simulator fires
	// equal-time events in schedule order, so head-pop order matches
	// delivery order exactly.
	inflight [2][]delivery
	inHead   [2]int
	// deliverFn[i] pops and delivers the head of inflight[i]; bound once
	// per link so Send allocates no per-frame closure.
	deliverFn [2]func()
	// txIdle[i] is when direction i->other becomes free to start
	// serializing the next frame.
	txIdle [2]sim.Time
	// down is the fault-injection carrier state, replicated per side so a
	// split link's shards each read only their own copy: while true,
	// frames offered to that side are dropped (frames already serialized
	// keep their delivery events — the bits left the sender before the
	// cut). SetUp toggles both replicas; split links toggle each side on
	// its own shard at identical instants (SetUpSide), so the replicas
	// never disagree at any observable point.
	down [2]bool
	// chanKey[i] is the keyed-delivery base for direction i->other
	// (sim.KeyedBase | direction ID), zero on access links. Inter-switch
	// links schedule deliveries with sim.AtKeyed using chanKey|chanSeq so
	// serial and sharded runs merge frames at switches in the same total
	// order; see DESIGN.md "Sharded execution".
	chanKey [2]uint64
	chanSeq [2]uint64
	// xchan[i] carries direction i->other across a shard boundary; nil on
	// unsplit links.
	xchan [2]*shard.Channel
	// tap[i] is the transport-layer transmit tap for side i: Send offers
	// every frame to it first, and a false return means the transport
	// consumed (or replaced) the frame — nothing reaches the wire.
	// Transports re-enter via Inject, which skips the tap. Func-typed on
	// purpose: the hot path calls it without interface dispatch.
	tap [2]func([]byte) bool
	// flows[i] is direction i's fluid-flow scheduler, allocated on the
	// first SendFlow so packet-only links pay a nil check at most; see
	// flow.go.
	flows [2]*flowState
	// pools[i] is the frame free list of side i's Sim (nil where the
	// universe arms no pools): the link is the terminal consumer of every
	// frame it drops on side i, and returns it there.
	pools [2]*wire.FramePool
	// counters
	frames  [2]uint64
	bytes   [2]uint64
	dropped [2]uint64
	marked  [2]uint64
	// peakBacklog[i] is the worst transmit-queue depth (in serialization
	// time) direction i has seen, the congestion signal incast and ECMP
	// imbalance leave behind.
	peakBacklog [2]sim.Time
}

// NewLink creates a link with the given parameters; attach ports with
// Attach before sending.
func NewLink(s *sim.Sim, params NetParams) *Link {
	if params.Bandwidth <= 0 {
		panic("fabric: link bandwidth must be positive")
	}
	l := &Link{sims: [2]*sim.Sim{s, s}, params: params}
	l.deliverFn[0] = func() { l.deliverHead(0) }
	l.deliverFn[1] = func() { l.deliverHead(1) }
	return l
}

// SetDeliveryKeys puts the link in keyed-delivery mode: direction i->other
// schedules its deliveries with sim.AtKeyed(arrive, keyI|counter) instead
// of the Sim's sequence counter. Topologies key every inter-switch link —
// in serial and sharded builds alike, with identical bases — so the merge
// order of frames arriving at a switch is a function of (arrival instant,
// direction, per-direction frame ordinal), not of which Sim scheduled the
// delivery. Bases must carry sim.KeyedBase and be unique per direction.
func (l *Link) SetDeliveryKeys(key0, key1 uint64) {
	if key0 < sim.KeyedBase || key1 < sim.KeyedBase {
		panic("fabric: delivery key below sim.KeyedBase")
	}
	l.chanKey[0], l.chanKey[1] = key0, key1
}

// Split moves side 1 of a keyed link onto its own shard Sim: each
// direction's deliveries cross through a shard.Channel registered with
// the executor, carrying the same (base, counter) keys a serial build
// would assign. Call after SetDeliveryKeys and before any traffic.
func (l *Link) Split(s1 *sim.Sim, x *shard.Executor) {
	if l.chanKey[0] == 0 || l.chanKey[1] == 0 {
		panic("fabric: Split before SetDeliveryKeys")
	}
	if l.frames[0]|l.frames[1] != 0 {
		panic("fabric: Split after traffic")
	}
	l.sims[1] = s1
	la := l.params.Lookahead()
	// The channel looks up deliverTo at delivery time (not send time):
	// inter-switch links never see ReplacePort, so the distinction from
	// the serial capture-at-send contract is unobservable.
	l.xchan[0] = shard.NewChannel(l.chanKey[0], la, s1, func(f []byte) { l.deliverTo[1](f) })
	l.xchan[1] = shard.NewChannel(l.chanKey[1], la, l.sims[0], func(f []byte) { l.deliverTo[0](f) })
	x.AddChannel(l.xchan[0])
	x.AddChannel(l.xchan[1])
}

// Sim returns the Sim the given side lives on.
func (l *Link) Sim(side int) *sim.Sim {
	if side != 0 && side != 1 {
		panicBadSide(side)
	}
	return l.sims[side]
}

// IsSplit reports whether the link's sides live on different Sims.
func (l *Link) IsSplit() bool { return l.sims[0] != l.sims[1] }

// Attach connects the two endpoints. Index 0 and 1 identify the sides for
// Send.
func (l *Link) Attach(a, b FramePort) {
	if a == nil || b == nil {
		panic("fabric: nil port")
	}
	l.ports[0], l.ports[1] = a, b
	l.deliverTo[0], l.deliverTo[1] = a.DeliverFrame, b.DeliverFrame
}

// Params returns the link parameters.
func (l *Link) Params() NetParams { return l.params }

// ReplacePort swaps the endpoint on one side — e.g. to substitute a
// different load generator after a rig is built. Frames already in flight
// are delivered to the port attached at their original send time.
func (l *Link) ReplacePort(side int, p FramePort) {
	if side != 0 && side != 1 {
		panic(fmt.Sprintf("fabric: bad link side %d", side))
	}
	if p == nil {
		panic("fabric: nil port")
	}
	l.ports[side] = p
	l.deliverTo[side] = p.DeliverFrame
}

// Send transmits a frame from the given side (0 or 1) to the other side.
// The frame is delivered to the peer port after serialization, propagation
// and switching delays; back-to-back sends queue behind each other. A
// frame offered while the link is down, or while the transmit backlog
// exceeds QueueLimit, is dropped and counted. When a transmit tap is
// installed on the sending side (SetTap), the frame is offered to it
// before any link processing — including the carrier check, so a
// transport observes its own sends even into a downed link.
//
//lhlint:hotpath
func (l *Link) Send(from int, frame []byte) {
	if from != 0 && from != 1 {
		panicBadSide(from)
	}
	if t := l.tap[from]; t != nil && !t(frame) {
		return // consumed by the transport
	}
	l.send(from, frame)
}

// Inject transmits a frame from the given side without offering it to the
// transmit tap — the re-entry point for transports, whose own frames
// (retransmits, grants, frames released from a credit queue) must not
// loop back through the tap. Carrier, queue-limit, and ECN processing
// apply exactly as in Send.
//
//lhlint:hotpath
func (l *Link) Inject(from int, frame []byte) {
	if from != 0 && from != 1 {
		panicBadSide(from)
	}
	l.send(from, frame)
}

// send is the shared post-tap transmit path of Send and Inject.
//
//lhlint:hotpath
func (l *Link) send(from int, frame []byte) {
	if l.ports[1-from] == nil {
		panic("fabric: link not attached")
	}
	now := l.sims[from].Now()
	if l.down[from] {
		l.dropped[from]++
		l.pools[from].Put(frame)
		return
	}
	start := now
	if l.txIdle[from] > start {
		start = l.txIdle[from] // wait for the wire
	}
	if l.params.QueueLimit > 0 && start-now > l.params.QueueLimit {
		l.dropped[from]++ // tail drop: the queue is QueueLimit deep
		l.pools[from].Put(frame)
		return
	}
	if th := l.params.ECNThreshold; th > 0 {
		backlog := start - now
		if fs := l.flows[from]; fs != nil {
			// Fluid flows never delay a frame (packets keep strict
			// priority) but their queued bytes are congestion all the
			// same, so they count toward the marking decision.
			backlog += fs.backlog(now)
		}
		if backlog > th && wire.MarkCE(frame) {
			l.marked[from]++
		}
	}
	ser := sim.PerByte(len(frame), l.params.Bandwidth)
	txEnd := start + ser
	l.txIdle[from] = txEnd
	if backlog := txEnd - now; backlog > l.peakBacklog[from] {
		l.peakBacklog[from] = backlog
	}
	l.frames[from]++
	l.bytes[from] += uint64(len(frame))
	arrive := txEnd + l.params.PropDelay + l.params.SwitchDelay
	if c := l.xchan[from]; c != nil {
		// Split direction: the frame crosses a shard boundary; the channel
		// assigns the same key a serial keyed link would.
		c.Send(arrive, frame)
		return
	}
	if k := l.chanKey[from]; k != 0 {
		l.inflight[from] = append(l.inflight[from], delivery{deliver: l.deliverTo[1-from], frame: frame, txStart: start})
		l.sims[from].AtKeyed(arrive, k|l.chanSeq[from], "link-deliver", l.deliverFn[from])
		l.chanSeq[from]++
		return
	}
	ev := l.sims[from].At(arrive, "link-deliver", l.deliverFn[from])
	l.inflight[from] = append(l.inflight[from], delivery{deliver: l.deliverTo[1-from], frame: frame, txStart: start, ev: ev})
}

// deliverHead hands the oldest in-flight frame of one direction to the
// deliver function captured when it was sent. Delivery order matches
// arrival order because per-direction arrival times never decrease and
// the simulator fires equal-time events in schedule order.
//
//lhlint:hotpath
func (l *Link) deliverHead(from int) {
	q := l.inflight[from]
	h := l.inHead[from]
	d := q[h]
	q[h] = delivery{}
	h++
	if h == len(q) {
		// Queue drained: rewind so the backing array is reused.
		l.inflight[from] = q[:0]
		l.inHead[from] = 0
	} else {
		l.inHead[from] = h
	}
	d.deliver(d.frame)
}

// panicBadSide keeps the fmt boxing of the bad-side panic off Send's hot
// path; it never returns.
func panicBadSide(from int) {
	panic(fmt.Sprintf("fabric: bad link side %d", from))
}

// Stats reports frames and bytes sent from the given side.
func (l *Link) Stats(from int) (frames, bytes uint64) {
	return l.frames[from], l.bytes[from]
}

// SetUp flips the link's carrier state on both sides (fault injection).
// Taking a link down does not cancel deliveries whose bits already left
// the sender, but it does purge a still-queued transmit backlog on
// unkeyed directions (see purgeQueued). Only valid on unsplit links,
// where both replicas live on one Sim; split links use SetUpSide from
// each shard.
func (l *Link) SetUp(up bool) {
	if l.IsSplit() {
		panic("fabric: SetUp on a split link; use SetUpSide per shard")
	}
	l.SetUpSide(0, up)
	l.SetUpSide(1, up)
}

// SetUpSide flips one side's carrier replica. Split links schedule this
// on each side's own Sim at the same instant, keeping the replicas
// observationally identical without a cross-shard read. An up→down
// transition purges the side's queued-but-unserialized backlog on
// unkeyed directions.
func (l *Link) SetUpSide(side int, up bool) {
	if side != 0 && side != 1 {
		panicBadSide(side)
	}
	wasDown := l.down[side]
	if fs := l.flows[side]; fs != nil && !up && !wasDown {
		// Settle fluid progress up to the cut while the carrier replica
		// still reads up; the remainders pause intact (the bits never
		// left the sender), so flow bytes are conserved across faults.
		fs.carrierDown()
	}
	l.down[side] = !up
	if !up && !wasDown {
		l.purgeQueued(side)
	}
	if fs := l.flows[side]; fs != nil && up && wasDown {
		fs.carrierUp()
	}
}

// purgeQueued drops the transmit backlog of one direction at a carrier
// cut: every frame whose serialization had not yet started loses its
// delivery event and counts as Dropped, and the transmitter rewinds to
// the earliest purged start so the direction is free once carrier
// returns. Frames mid-serialization (txStart <= now) survive — their
// bits are leaving the sender.
//
// Only unkeyed directions purge. Keyed inter-switch directions commit a
// frame's (key, counter) delivery order at enqueue — the invariant that
// makes serial and sharded runs byte-identical — and a split direction's
// frames are already inside a shard.Channel, so both keep the legacy
// bits-committed-at-enqueue semantics.
func (l *Link) purgeQueued(from int) {
	if l.chanKey[from] != 0 || l.xchan[from] != nil {
		return
	}
	q := l.inflight[from]
	now := l.sims[from].Now()
	end := len(q)
	for end > l.inHead[from] && q[end-1].txStart > now {
		end--
		d := q[end]
		q[end] = delivery{}
		l.sims[from].Cancel(d.ev)
		l.dropped[from]++
		l.pools[from].Put(d.frame)
		l.txIdle[from] = d.txStart
	}
	if end == len(q) {
		return
	}
	if end == l.inHead[from] {
		l.inflight[from] = q[:0]
		l.inHead[from] = 0
		return
	}
	l.inflight[from] = q[:end]
}

// Up reports whether the link currently has carrier. On a split link this
// reads both replicas and is only safe between runs; in-simulation
// callers on split links must use UpSide.
func (l *Link) Up() bool { return !l.down[0] && !l.down[1] }

// UpSide reports one side's carrier replica — the side-local read a
// switch uses for ECMP liveness so a split link is never read across the
// shard boundary.
func (l *Link) UpSide(side int) bool { return !l.down[side] }

// Dropped reports frames dropped on the given side — offered while the
// link was down, offered while the transmit queue was full, or purged
// from the queue by a carrier cut.
func (l *Link) Dropped(from int) uint64 { return l.dropped[from] }

// DroppedTotal sums drops over both sides.
func (l *Link) DroppedTotal() uint64 { return l.dropped[0] + l.dropped[1] }

// PeakBacklog reports the worst transmit-queue depth (as serialization
// time) the given side has seen.
func (l *Link) PeakBacklog(from int) sim.Time { return l.peakBacklog[from] }

// Marked reports frames CE-marked on the given side by the ECNThreshold
// backlog check.
func (l *Link) Marked(from int) uint64 { return l.marked[from] }

// MarkedTotal sums CE marks over both sides.
func (l *Link) MarkedTotal() uint64 { return l.marked[0] + l.marked[1] }

// SetPools hands the link each side's frame free list: poolOf maps a
// side's Sim to its pool (nil for none). Call at build time, after
// Split.
func (l *Link) SetPools(poolOf func(*sim.Sim) *wire.FramePool) {
	l.pools[0], l.pools[1] = poolOf(l.sims[0]), poolOf(l.sims[1])
}

// SetTap installs (or, with nil, removes) the transmit tap for one side.
// Send offers every frame to the tap before any link processing; a false
// return means the tap consumed the frame. Taps belong to the transport
// layer — see internal/transport — and must live on the side's Sim.
func (l *Link) SetTap(side int, tap func([]byte) bool) {
	if side != 0 && side != 1 {
		panicBadSide(side)
	}
	l.tap[side] = tap
}
