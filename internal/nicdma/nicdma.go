// Package nicdma models the traditional descriptor-ring DMA NIC of the
// paper's Figure 1: incoming packets are demultiplexed by RSS onto receive
// queues, DMA'd into host memory along with completion descriptors, and
// signalled with (moderated) interrupts — or polled, which is how
// kernel-bypass dataplanes drive the very same hardware.
//
// The model charges every hardware interaction with the latencies of the
// configured fabric (PCIe x86, PCIe Enzian, ...): payload DMA, completion
// writes, descriptor fetches, doorbells, and interrupt delivery.
//
// Determinism invariants: RSS queue selection hashes frame bytes (or
// steers by port), every DMA/IRQ completion fires at a simulated time,
// and no randomness is drawn — the NIC replays identically for a given
// frame sequence.
package nicdma

import (
	"fmt"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Config parameterizes a NIC instance.
type Config struct {
	// Fabric supplies DMA/MMIO/IRQ latencies; it must have HasDMA.
	Fabric fabric.Params
	// Queues is the number of RSS receive queues.
	Queues int
	// NICProcess is the on-NIC packet processing time (header parse, RSS
	// hash, checksum verify) per packet.
	NICProcess sim.Time
	// IRQCoalesce holds off interrupts after one fires, batching packets
	// (interrupt moderation). Zero disables moderation.
	IRQCoalesce sim.Time
	// RingSize bounds each RX ring; packets arriving to a full ring are
	// dropped (as real NICs do).
	RingSize int
	// SteerByPort selects the RX queue by destination UDP port modulo the
	// queue count instead of RSS flow hashing — the "flow director"-style
	// exact steering kernel-bypass deployments use to bind one service to
	// one queue.
	SteerByPort bool
	// FilterIP, when non-zero, drops received frames whose IP destination
	// differs (counted in Stats.RxFiltered). Switched fabrics flood frames
	// for unlearned MACs to every port, so a NIC sharing a switch with
	// other hosts must discard traffic that is not addressed to it — as
	// real NICs do in hardware. Zero accepts everything (fine on a
	// point-to-point link).
	FilterIP wire.IP
}

// DefaultConfig returns an x86-class NIC configuration.
func DefaultConfig() Config {
	return Config{
		Fabric:      fabric.PCIeX86,
		Queues:      1,
		NICProcess:  300 * sim.Nanosecond,
		IRQCoalesce: 0,
		RingSize:    1024,
	}
}

// EnzianConfig returns the Enzian FPGA NIC configuration: the slower
// fabric clock makes per-packet processing several times costlier.
func EnzianConfig() Config {
	return Config{
		Fabric:      fabric.PCIeEnzian,
		Queues:      1,
		NICProcess:  3000 * sim.Nanosecond, // ~250 MHz FPGA packet pipeline
		IRQCoalesce: 0,
		RingSize:    1024,
	}
}

// Stats counts NIC activity.
type Stats struct {
	RxFrames    uint64
	RxBadFrames uint64
	RxDropped   uint64
	RxFiltered  uint64 // not addressed to this host (switched fabrics)
	TxFrames    uint64
	TxNoCarrier uint64 // frames dropped at the driver's carrier check
	IRQs        uint64
}

// RxQueue is one receive ring, after DMA: entries are frames already
// resident in host memory.
type RxQueue struct {
	id  int
	nic *NIC

	ring []*wire.Datagram

	irqArmed  bool // driver wants interrupts
	irqMasked bool // NAPI-style: masked until driver re-enables
	lastIRQ   sim.Time

	// OnIRQ is the driver hook, invoked when the queue raises an
	// interrupt (after fabric IRQ latency). It runs in "hardware" context:
	// implementations should bounce into kernel.IRQ.
	OnIRQ func(q *RxQueue)

	// arrivalWaiters are one-shot callbacks from pollers parked on an
	// empty ring (see OnArrival).
	arrivalWaiters []func()
}

// OnArrival registers a one-shot callback invoked as soon as a frame is
// available: immediately if the ring is non-empty, otherwise at the next
// DMA completion. Poll loops use it to avoid simulating every individual
// empty poll iteration; the caller models the poll-discovery cost itself.
func (q *RxQueue) OnArrival(fn func()) {
	if len(q.ring) > 0 {
		fn()
		return
	}
	q.arrivalWaiters = append(q.arrivalWaiters, fn)
}

//lhlint:hotpath
func (q *RxQueue) notifyArrival() {
	if len(q.arrivalWaiters) == 0 {
		return
	}
	ws := q.arrivalWaiters
	q.arrivalWaiters = nil
	for _, w := range ws {
		w()
	}
}

// ID returns the queue index.
func (q *RxQueue) ID() int { return q.id }

// Len returns the number of frames waiting in the ring.
func (q *RxQueue) Len() int { return len(q.ring) }

// Poll removes and returns the next received datagram, or nil. The caller
// models its own polling cost; Poll itself is free (the ring is in host
// memory).
//
//lhlint:hotpath
func (q *RxQueue) Poll() *wire.Datagram {
	if len(q.ring) == 0 {
		return nil
	}
	d := q.ring[0]
	q.ring = q.ring[1:]
	return d
}

// EnableIRQ arms (or re-arms, NAPI-style) interrupts for the queue. If
// packets are already pending, an interrupt fires immediately.
func (q *RxQueue) EnableIRQ() {
	q.irqArmed = true
	q.irqMasked = false
	if len(q.ring) > 0 {
		q.raiseIRQ()
	}
}

// DisableIRQ switches the queue to pure polling (bypass mode).
func (q *RxQueue) DisableIRQ() {
	q.irqArmed = false
	q.irqMasked = false
}

func (q *RxQueue) raiseIRQ() {
	if !q.irqArmed || q.irqMasked || q.OnIRQ == nil {
		return
	}
	n := q.nic
	if n.cfg.IRQCoalesce > 0 && n.sim.Now()-q.lastIRQ < n.cfg.IRQCoalesce && q.lastIRQ > 0 {
		// Within the moderation window: defer to the window's end.
		fireAt := q.lastIRQ + n.cfg.IRQCoalesce
		q.irqMasked = true
		n.sim.At(fireAt, "nicdma-coalesced-irq", func() {
			q.irqMasked = false
			if len(q.ring) > 0 {
				q.raiseIRQ()
			}
		})
		return
	}
	q.irqMasked = true // masked until driver EnableIRQ (NAPI)
	q.lastIRQ = n.sim.Now()
	n.stats.IRQs++
	n.sim.After(n.cfg.Fabric.IRQLatency, "nicdma-irq", func() { q.OnIRQ(q) })
}

// rxPend is one frame's in-flight receive state: it rides through both
// timed hops (NIC processing, then payload DMA) behind a single step
// callback bound once at allocation, and returns to the NIC's free list
// when the frame is delivered or dropped.
type rxPend struct {
	n     *NIC
	frame []byte
	d     *wire.Datagram
	q     *RxQueue
	stage int // 1 = processing, 2 = DMA
	fire  func()
}

// NIC is the device model. It implements fabric.FramePort for the receive
// direction.
type NIC struct {
	// Frames is the host's frame free list (nil where the universe arms
	// no pools). The NIC returns to it every frame it drops — bad,
	// filtered, ring-full, or offered toward a downed carrier — and the
	// host stack builds its frames from it.
	Frames *wire.FramePool

	sim   *sim.Sim
	cfg   Config
	link  *fabric.Link
	side  int
	qs    []*RxQueue
	stats Stats
	// txBusy serializes the DMA engine for transmit descriptor fetches.
	txBusy sim.Time
	// txq stages frames awaiting their TX-done event oldest-first: TX DMA
	// completion times strictly increase, so head-pop order matches event
	// order and one prebound callback replaces a per-frame closure.
	txq    [][]byte
	txHead int
	txFn   func()
	// rxFree pools rxPend entries so the two-hop receive path allocates
	// only on depth high-water marks.
	rxFree []*rxPend
}

// New creates a NIC attached to nothing; call AttachLink before
// transmitting.
func New(s *sim.Sim, cfg Config) *NIC {
	if !cfg.Fabric.HasDMA {
		panic(fmt.Sprintf("nicdma: fabric %s has no DMA", cfg.Fabric.Name))
	}
	if cfg.Queues <= 0 {
		panic("nicdma: need at least one queue")
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	n := &NIC{sim: s, cfg: cfg}
	n.txFn = n.txDone
	for i := 0; i < cfg.Queues; i++ {
		n.qs = append(n.qs, &RxQueue{id: i, nic: n})
	}
	return n
}

// AttachLink connects the NIC to a network link as the given side.
func (n *NIC) AttachLink(l *fabric.Link, side int) {
	n.link = l
	n.side = side
}

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// Queue returns RX queue i.
func (n *NIC) Queue(i int) *RxQueue { return n.qs[i] }

// NumQueues returns the number of RX queues.
func (n *NIC) NumQueues() int { return len(n.qs) }

// Stats returns a snapshot of the counters.
func (n *NIC) Stats() Stats { return n.stats }

// DeliverFrame implements fabric.FramePort: a frame has arrived from the
// wire. The NIC parses it (for RSS and checksum offload), selects a queue,
// DMAs payload + completion, and possibly raises an interrupt.
//
//lhlint:hotpath
func (n *NIC) DeliverFrame(frame []byte) {
	var p *rxPend
	if len(n.rxFree) > 0 {
		p = n.rxFree[len(n.rxFree)-1]
		n.rxFree = n.rxFree[:len(n.rxFree)-1]
	} else {
		p = &rxPend{n: n}
		//lhlint:allow hotpath bound once per pooled entry; reused for every frame that rides it
		p.fire = func() { p.step() }
	}
	p.frame = frame
	p.stage = 1
	n.sim.After(n.cfg.NICProcess, "nicdma-rx-process", p.fire)
}

// step advances a pending frame one hop: parse + steer after NIC
// processing, then ring insertion after the payload DMA. DMA delays vary
// with frame length, so entries can fire out of schedule order — each
// carries its own state instead of relying on FIFO order.
//
//lhlint:hotpath
func (p *rxPend) step() {
	n := p.n
	switch p.stage {
	case 1:
		d, err := wire.ParseUDP(p.frame)
		if err != nil {
			n.stats.RxBadFrames++
			p.drop()
			return
		}
		if n.cfg.FilterIP != (wire.IP{}) && d.IP.Dst != n.cfg.FilterIP {
			n.stats.RxFiltered++
			p.drop()
			return
		}
		if n.cfg.SteerByPort {
			p.q = n.qs[int(d.UDP.DstPort)%len(n.qs)]
		} else {
			p.q = n.qs[int(d.Flow.Hash())%len(n.qs)]
		}
		if len(p.q.ring) >= n.cfg.RingSize {
			n.stats.RxDropped++
			p.drop()
			return
		}
		// DMA payload into a host buffer, then write the completion
		// descriptor. Both must be visible before the packet "exists"
		// for software.
		p.d = d
		p.stage = 2
		dma := n.cfg.Fabric.DMATransfer(len(p.frame)) + n.cfg.Fabric.DMAWrite
		n.sim.After(dma, "nicdma-rx-dma", p.fire)
	case 2:
		if len(p.q.ring) >= n.cfg.RingSize {
			n.stats.RxDropped++
			p.drop()
			return
		}
		q, d := p.q, p.d
		p.release()
		q.ring = append(q.ring, d)
		n.stats.RxFrames++
		q.raiseIRQ()
		q.notifyArrival()
	}
}

// drop discards the entry's frame — the NIC is its terminal consumer —
// and releases the entry.
//
//lhlint:hotpath
func (p *rxPend) drop() {
	p.n.Frames.Put(p.frame)
	p.release()
}

// release returns the entry to the NIC's free list.
//
//lhlint:hotpath
func (p *rxPend) release() {
	p.frame = nil
	p.d = nil
	p.q = nil
	p.stage = 0
	p.n.rxFree = append(p.n.rxFree, p)
}

// Transmit sends a frame that host software has placed in a TX ring. The
// host-side costs (building the descriptor, the doorbell MMIO write) are
// charged to the calling thread by the caller; this method models the
// NIC-side latency: descriptor fetch, payload DMA read, and wire transmit.
//
//lhlint:hotpath
func (n *NIC) Transmit(frame []byte) {
	if n.link == nil {
		panic("nicdma: transmit with no link attached")
	}
	if !n.link.Up() {
		// The driver's carrier check (netif_carrier_ok): a frame offered
		// toward a downed link is dropped before any DMA is spent on it.
		n.stats.TxNoCarrier++
		n.Frames.Put(frame)
		return
	}
	// Serialize the TX DMA engine.
	start := n.sim.Now()
	if n.txBusy > start {
		start = n.txBusy
	}
	fetch := n.cfg.Fabric.DMARead                   // descriptor fetch
	payload := n.cfg.Fabric.DMATransfer(len(frame)) // payload read
	process := n.cfg.NICProcess                     // checksum insert etc.
	done := start + fetch + payload + process
	n.txBusy = done
	// Completion times strictly increase (each starts no earlier than the
	// previous done), so head-pop order matches event order.
	n.txq = append(n.txq, frame)
	n.sim.At(done, "nicdma-tx", n.txFn)
}

// txDone completes the oldest queued TX DMA: count it and put the frame on
// the wire.
//
//lhlint:hotpath
func (n *NIC) txDone() {
	q := n.txq
	h := n.txHead
	frame := q[h]
	q[h] = nil
	h++
	if h == len(q) {
		n.txq = q[:0]
		n.txHead = 0
	} else {
		n.txHead = h
	}
	n.stats.TxFrames++
	n.link.Send(n.side, frame)
}

// DoorbellCost returns the host-side cost of ringing the TX doorbell,
// charged by the sending thread.
func (n *NIC) DoorbellCost() sim.Time { return n.cfg.Fabric.MMIOWrite }
