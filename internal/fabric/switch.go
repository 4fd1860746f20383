package fabric

import (
	"encoding/binary"
	"fmt"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Switch is an N-port Ethernet switch. In its default mode it is a
// learning switch (used for single-switch star topologies): it learns
// source MACs and forwards — or floods — by destination MAC. A Topology
// instead runs it routed: the FDB is programmed statically via Learn,
// learning is disabled, and destinations the switch does not know are
// hashed across an ECMP uplink group (SetUplinks) rather than flooded.
// Forwarding latency is carried by the attached links (SwitchDelay is
// already part of Link delivery), so the switch itself forwards
// instantly.
type Switch struct {
	sim   *sim.Sim
	ports []*SwitchPort
	fdb   map[wire.MAC]int // learned or programmed MAC -> port index

	// uplinks are the ECMP group's port indices; non-empty puts the
	// switch in routed mode (static FDB, no learning, no flooding of
	// unknown unicast).
	uplinks  []int
	ecmpSeed uint64
	routed   bool
	draining bool
	// groups are named ECMP port groups for destinations reachable over
	// several equal paths below this switch — a 3-tier core spreads each
	// MAC across the destination pod's spines this way. groupOf maps a
	// MAC to its group; it wins over the uplink group but loses to an
	// exact fdb entry.
	groups  [][]int
	groupOf map[wire.MAC]int
	// trunk marks inter-switch ports. Broadcast floods never leave a
	// trunk port: with static FDBs a broadcast has no routing job to do,
	// and flooding it across redundant uplinks (or around a ring) would
	// loop forever — real routed fabrics confine L2 broadcast the same
	// way.
	trunk map[int]bool
	// pool is the frame free list of the switch's Sim (nil where the
	// universe arms no pools). The switch returns the frames it drops to
	// it, and floods a broadcast as one Clone per extra egress port.
	pool *wire.FramePool

	// Flooded counts frames sent out all ports for unknown destinations.
	Flooded uint64
	// Forwarded counts unicast-forwarded frames.
	Forwarded uint64
	// ECMPForwarded counts frames hashed onto an uplink.
	ECMPForwarded uint64
	// Dropped counts frames discarded: ingress while draining, unknown
	// unicast in routed mode with no live uplink, or hairpins toward a
	// dead ECMP group.
	Dropped uint64
}

// NewSwitch creates an empty learning switch.
func NewSwitch(s *sim.Sim) *Switch {
	return &Switch{sim: s, fdb: make(map[wire.MAC]int)}
}

// SwitchPort is one port: it implements FramePort for the link attached
// to it.
type SwitchPort struct {
	sw   *Switch
	idx  int
	link *Link
	side int
}

// DeliverFrame implements FramePort: a frame arrived from this port's
// link.
func (p *SwitchPort) DeliverFrame(frame []byte) {
	p.sw.ingress(p.idx, frame)
}

// AttachPort connects a link side to a new switch port and returns the
// port. The caller attaches the port as that link's endpoint:
//
//	link := fabric.NewLink(s, params)
//	port := sw.AttachPort(link, 1)
//	link.Attach(hostNIC, port) // host on side 0, switch on side 1
func (sw *Switch) AttachPort(l *Link, side int) *SwitchPort {
	if l == nil {
		panic("fabric: nil link")
	}
	p := &SwitchPort{sw: sw, idx: len(sw.ports), link: l, side: side}
	sw.ports = append(sw.ports, p)
	return p
}

// Sim returns the simulator the switch lives on.
func (sw *Switch) Sim() *sim.Sim { return sw.sim }

// NumPorts returns the number of attached ports.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// FDBLen returns how many MACs the switch knows.
func (sw *Switch) FDBLen() int { return len(sw.fdb) }

// FDBPort returns the port index a MAC was learned on, if any.
func (sw *Switch) FDBPort(mac wire.MAC) (int, bool) {
	p, ok := sw.fdb[mac]
	return p, ok
}

// Learn statically programs mac -> port and marks the switch routed:
// source learning stops and unknown unicast is ECMP-routed (or dropped)
// instead of flooded. Topologies call this for every endpoint at build
// time, so no multi-tier fabric ever floods — flooding across redundant
// uplinks would loop, and real fabrics run routed for the same reason.
func (sw *Switch) Learn(mac wire.MAC, port int) {
	if port < 0 || port >= len(sw.ports) {
		panic(fmt.Sprintf("fabric: Learn port %d of %d", port, len(sw.ports)))
	}
	sw.fdb[mac] = port
	sw.routed = true
}

// SetUplinks declares the ECMP uplink group (port indices) and the seed
// that salts the flow hash. It marks the switch routed.
func (sw *Switch) SetUplinks(ports []int, seed uint64) {
	for _, p := range ports {
		if p < 0 || p >= len(sw.ports) {
			panic(fmt.Sprintf("fabric: uplink port %d of %d", p, len(sw.ports)))
		}
	}
	sw.uplinks = append([]int(nil), ports...)
	sw.ecmpSeed = seed
	sw.routed = true
	for _, p := range ports {
		sw.MarkTrunk(p)
	}
}

// AddGroup registers an ECMP port group and returns its index. Groups on
// one switch are appended in call order, so a topology that creates them
// in a deterministic order gets deterministic indices.
func (sw *Switch) AddGroup(ports []int) int {
	for _, p := range ports {
		if p < 0 || p >= len(sw.ports) {
			panic(fmt.Sprintf("fabric: group port %d of %d", p, len(sw.ports)))
		}
		sw.MarkTrunk(p)
	}
	sw.groups = append(sw.groups, append([]int(nil), ports...))
	sw.routed = true
	return len(sw.groups) - 1
}

// LearnGroup programs mac -> ECMP group: frames for mac hash across the
// group's live ports. An exact Learn entry for the same MAC takes
// precedence. Marks the switch routed.
func (sw *Switch) LearnGroup(mac wire.MAC, group int) {
	if group < 0 || group >= len(sw.groups) {
		panic(fmt.Sprintf("fabric: LearnGroup group %d of %d", group, len(sw.groups)))
	}
	if sw.groupOf == nil {
		sw.groupOf = make(map[wire.MAC]int)
	}
	sw.groupOf[mac] = group
	sw.routed = true
}

// MarkTrunk excludes a port from broadcast flooding (see the trunk field;
// topologies mark ring segments and uplinks).
func (sw *Switch) MarkTrunk(port int) {
	if port < 0 || port >= len(sw.ports) {
		panic(fmt.Sprintf("fabric: trunk port %d of %d", port, len(sw.ports)))
	}
	if sw.trunk == nil {
		sw.trunk = make(map[int]bool)
	}
	sw.trunk[port] = true
}

// SetPool hands the switch its Sim's frame free list (see the pool
// field). Call at build time.
func (sw *Switch) SetPool(p *wire.FramePool) { sw.pool = p }

// SetDrain starts or stops draining: a draining switch discards every
// frame it receives (counted in Dropped), modelling a maintenance drain
// or a crashed switch.
func (sw *Switch) SetDrain(on bool) { sw.draining = on }

// Draining reports the drain state.
func (sw *Switch) Draining() bool { return sw.draining }

// flowHash hashes the fields ECMP spreads on. For IPv4/UDP frames it is
// the RSS 5-tuple hash (src/dst IP and port); anything else falls back
// to the MAC pair, so ARP-class traffic still picks a stable path. The
// hash depends only on frame bytes and the switch's seed — never on
// arrival order or simulator state — which is what keeps path selection
// byte-identical between serial and parallel experiment runs.
func (sw *Switch) flowHash(frame []byte) uint64 {
	h := sw.ecmpSeed
	mix := func(v uint64) {
		h ^= v
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	const ipOff = wire.EthernetHeaderLen
	if len(frame) >= wire.HeadersLen &&
		binary.BigEndian.Uint16(frame[12:14]) == wire.EtherTypeIPv4 &&
		frame[ipOff] == 0x45 && frame[ipOff+9] == wire.ProtoUDP {
		mix(uint64(binary.BigEndian.Uint32(frame[ipOff+12 : ipOff+16]))) // src IP
		mix(uint64(binary.BigEndian.Uint32(frame[ipOff+16 : ipOff+20]))) // dst IP
		mix(uint64(binary.BigEndian.Uint32(frame[ipOff+20 : ipOff+24]))) // src+dst port
		return h
	}
	// ingress guarantees len(frame) >= EthernetHeaderLen (14), so the
	// 12 MAC bytes are always addressable.
	mix(binary.BigEndian.Uint64(frame[0:8]))
	mix(uint64(binary.BigEndian.Uint32(frame[8:12])))
	return h
}

// ecmpWeight is the rendezvous weight of one (flow hash, port) pair.
func ecmpWeight(h uint64, port int) uint64 {
	w := h ^ (uint64(port)+1)*0x9e3779b97f4a7c15
	w ^= w >> 33
	w *= 0xff51afd7ed558ccd
	w ^= w >> 33
	return w
}

// ecmpPick selects the live uplink for a frame by rendezvous
// (highest-random-weight) hashing: every live uplink gets a weight
// derived from the flow hash and its port index, and the heaviest wins
// (ties break toward the lower port). A down uplink therefore remaps
// exactly its own flows — every other flow keeps the port it already
// had, and returns when the link recovers. It returns -1 when no uplink
// is usable.
func (sw *Switch) ecmpPick(fromPort int, frame []byte) int {
	return sw.ecmpPickIn(sw.uplinks, fromPort, frame)
}

// ecmpPickIn is ecmpPick over an explicit port group; a port is live
// while its link has carrier.
func (sw *Switch) ecmpPickIn(group []int, fromPort int, frame []byte) int {
	h := sw.flowHash(frame)
	best := -1
	var bestW uint64
	for _, p := range group {
		if p == fromPort || !sw.ports[p].link.Up() {
			continue
		}
		if w := ecmpWeight(h, p); best < 0 || w > bestW {
			best, bestW = p, w
		}
	}
	return best
}

// ingress handles a frame arriving on fromPort: learn (unless routed),
// then forward by destination, ECMP-route, or flood. The switch is the
// terminal consumer of every frame it drops.
func (sw *Switch) ingress(fromPort int, frame []byte) {
	if len(frame) < wire.EthernetHeaderLen {
		sw.pool.Put(frame)
		return
	}
	if sw.draining {
		sw.Dropped++
		sw.pool.Put(frame)
		return
	}
	var dst, src wire.MAC
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])
	if !sw.routed {
		sw.fdb[src] = fromPort
	}

	if out, ok := sw.fdb[dst]; ok && dst != wire.BroadcastMAC {
		if out == fromPort {
			sw.pool.Put(frame) // destination is behind the ingress port; drop
			return
		}
		sw.Forwarded++
		sw.ports[out].link.Send(sw.ports[out].side, frame)
		return
	}
	if sw.routed && dst != wire.BroadcastMAC {
		// Group-routed destination (3-tier core): hash across the
		// destination's equal-cost group; fall back to the uplink group
		// for anything else.
		group := sw.uplinks
		if g, ok := sw.groupOf[dst]; ok {
			group = sw.groups[g]
		}
		out := sw.ecmpPickIn(group, fromPort, frame)
		if out < 0 {
			sw.Dropped++
			sw.pool.Put(frame)
			return
		}
		sw.ECMPForwarded++
		sw.ports[out].link.Send(sw.ports[out].side, frame)
		return
	}
	// Unknown destination (or broadcast): flood, but never out a trunk
	// port (see the trunk field — cross-tier flooding would loop). With a
	// pool armed every egress port but the last gets its own Clone, made
	// before the original leaves, so one buffer never reaches two
	// consumers; without one the ports share the frame, as no consumer
	// recycles it.
	sw.Flooded++
	last := -1
	for i := range sw.ports {
		if i != fromPort && !sw.trunk[i] {
			last = i
		}
	}
	if last < 0 {
		sw.pool.Put(frame)
		return
	}
	for i, p := range sw.ports {
		if i == fromPort || sw.trunk[i] {
			continue
		}
		f := frame
		if i != last && sw.pool != nil {
			f = sw.pool.Clone(frame)
		}
		p.link.Send(p.side, f)
	}
}

// String summarizes the switch.
func (sw *Switch) String() string {
	return fmt.Sprintf("switch{ports=%d learned=%d fwd=%d ecmp=%d flood=%d drop=%d}",
		len(sw.ports), len(sw.fdb), sw.Forwarded, sw.ECMPForwarded, sw.Flooded, sw.Dropped)
}
