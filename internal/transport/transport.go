// Package transport is the pluggable transport seam between the
// workload/request layer and the stack drivers: per-endpoint recovery
// and congestion-control state machines that interpose on a machine's
// access link without the stacks or the workload knowing they exist.
//
// The seam has two halves, both installed by the cluster builder:
//
//   - transmit: a fabric.Link tap (Link.SetTap) sees every frame the
//     machine offers its access link before any link processing, and may
//     consume frames (hold them for pacing, record retransmit state) and
//     re-enter the wire later via Link.Inject, which bypasses the tap;
//   - receive: the transport wraps the machine's fabric.FramePort, so
//     delivered frames pass through it before the NIC — it suppresses
//     duplicates, absorbs control frames, and counts congestion signals,
//     then hands the frame to the wrapped port.
//
// Schemes register in a driver registry mirroring internal/stackdrv:
// cluster.Spec.Transport selects a Kind, lhbench/lhsim expose -transport,
// and the zero value (Raw) is "no transport at all" — a Raw universe
// builds the exact pre-transport code path, with no tap and no wrapper.
//
// Three schemes ship: Retry (per-request timeout with exponential
// backoff, bounded retransmits, duplicate suppression and response
// replay at the receiver), ECN (fabric links CE-mark frames over an
// ECNThreshold backlog, receivers echo the marks, senders run a
// DCTCP-style fraction-based window cut with additive recovery), and
// Credit (receiver-driven grant pacing in the Homa/NDP style: senders
// transmit against outstanding credits, so incast fan-in drains at the
// receiver's chosen rate instead of collapsing a tail-drop queue).
//
// Determinism invariants: a transport instance lives wholly on its
// machine's Sim — every timer it arms, every tap and wrapper it runs,
// and every control frame it originates is Sim-local, so sharded
// universes (which never split access links) inherit serial/sharded
// byte identity with no transport-specific reasoning. State machines
// follow the PR 7 flattening rules: prebound callbacks, free-list
// pools, no interface dispatch on the hot path, and no map iteration.
package transport

import (
	"fmt"
	"sort"
	"sync"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Kind identifies a registered transport scheme. The cluster package
// aliases it as cluster.Transport, so specs name kinds directly.
type Kind int

const (
	// Raw is the zero value: no transport. No tap is installed, no port
	// is wrapped — the universe builds the exact pre-transport path.
	Raw Kind = iota
	// Retry is per-request timeout/retransmit with receiver-side
	// duplicate suppression and response replay.
	Retry
	// ECN is the DCTCP-style sender-reactive scheme over the fabric's
	// ECNThreshold CE marks.
	ECN
	// Credit is receiver-driven grant pacing (Homa/NDP-style).
	Credit
)

// Label returns the registered display label of the kind, or a
// transport(n) placeholder when nothing is registered for it.
func (k Kind) Label() string {
	if e, ok := Lookup(k); ok {
		return e.Label
	}
	return fmt.Sprintf("transport(%d)", int(k))
}

// Name returns the registered short name of the kind (the CLI and
// experiment-table form), or a transport(n) placeholder.
func (k Kind) Name() string {
	if e, ok := Lookup(k); ok {
		return e.Name
	}
	return fmt.Sprintf("transport(%d)", int(k))
}

// Params carries what a transport factory needs to provision one
// endpoint's instance.
type Params struct {
	// Sim is the simulator the endpoint's machine lives on; everything
	// the instance schedules stays here.
	Sim *sim.Sim
	// Self is the machine's wire identity (MAC and IP; the Port field is
	// meaningless here — transports source control traffic from their
	// own reserved port).
	Self wire.Endpoint
	// Pool is the machine Sim's frame free list, nil where pooling is
	// unsafe (flooding topologies). A transport that terminally consumes
	// a frame may Put it when Pool is non-nil.
	Pool *wire.FramePool
}

// Instance is one endpoint's provisioned transport. The cluster builder
// calls WrapPort before attaching the machine's FramePort to its access
// link and BindLink right after the attachment; both run at build time,
// never on the hot path.
type Instance interface {
	// WrapPort returns the FramePort the link should deliver into: the
	// transport's receive-side interposer around inner.
	WrapPort(inner fabric.FramePort) fabric.FramePort
	// BindLink tells the instance which link side it transmits on. The
	// instance installs its transmit tap here.
	BindLink(l *fabric.Link, side int)
	// Stats reports the instance's counters.
	Stats() Stats
}

// Stats are the transport counters an instance accumulates; experiments
// sum them across machines. Fields irrelevant to a scheme stay zero.
type Stats struct {
	// Retransmits counts data frames re-injected after a timeout.
	Retransmits uint64
	// GiveUps counts requests abandoned after the retransmit budget.
	GiveUps uint64
	// DupsSuppressed counts duplicate requests dropped while the
	// original was still in service.
	DupsSuppressed uint64
	// Replays counts duplicate requests answered from the response
	// cache without re-executing the service.
	Replays uint64
	// MarksSeen counts congestion signals (CE or echoed CE) observed on
	// received responses.
	MarksSeen uint64
	// EchoesSent counts responses stamped with the echo bit because the
	// matching request arrived CE-marked.
	EchoesSent uint64
	// WindowCuts counts multiplicative congestion-window reductions.
	WindowCuts uint64
	// SlotReclaims counts in-flight slots reclaimed by loss timers
	// (frames presumed lost with no retransmit).
	SlotReclaims uint64
	// HeldFrames counts frames queued at the sender awaiting window
	// space or credit.
	HeldFrames uint64
	// RTSSent and GrantsSent count credit-scheme control frames.
	RTSSent    uint64
	GrantsSent uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Retransmits += other.Retransmits
	s.GiveUps += other.GiveUps
	s.DupsSuppressed += other.DupsSuppressed
	s.Replays += other.Replays
	s.MarksSeen += other.MarksSeen
	s.EchoesSent += other.EchoesSent
	s.WindowCuts += other.WindowCuts
	s.SlotReclaims += other.SlotReclaims
	s.HeldFrames += other.HeldFrames
	s.RTSSent += other.RTSSent
	s.GrantsSent += other.GrantsSent
}

// Entry describes one registered transport scheme.
type Entry struct {
	Kind Kind
	// Name is the short unique name used in tables and CLI selection
	// (e.g. "retry").
	Name string
	// Label is the display label (e.g. "Retry (timeout/rtx)").
	Label string
	// New provisions one endpoint's instance. It must schedule no events
	// and draw no randomness (the cluster builder's construction-order
	// contract). A nil New registers a pass-through scheme: the builder
	// installs nothing at all (Raw).
	New func(Params) Instance
}

var (
	//lhlint:allow goroutine guards the init-time scheme registry, not simulation state; models never touch it mid-run
	regMu     sync.RWMutex
	registry  = make(map[Kind]Entry)
	byName    = make(map[string]Kind)
	regSorted []Entry
)

// Register installs a scheme entry. It panics on an unnamed entry or
// when the kind or name is already taken — schemes register from init
// functions, where a collision is a programming error. Unlike stackdrv,
// a nil New is legal: it declares a no-interposition scheme.
func Register(e Entry) {
	if e.Name == "" || e.Label == "" {
		panic(fmt.Sprintf("transport: incomplete scheme entry %+v", e))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, dup := registry[e.Kind]; dup {
		panic(fmt.Sprintf("transport: kind %d registered twice (%q, %q)", int(e.Kind), prev.Name, e.Name))
	}
	if _, dup := byName[e.Name]; dup {
		panic(fmt.Sprintf("transport: name %q registered twice", e.Name))
	}
	registry[e.Kind] = e
	byName[e.Name] = e.Kind
	regSorted = append(regSorted, e)
	sort.Slice(regSorted, func(i, j int) bool { return regSorted[i].Kind < regSorted[j].Kind })
}

// Lookup returns the entry registered for the kind.
func Lookup(k Kind) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[k]
	return e, ok
}

// ByName returns the entry registered under the short name.
func ByName(name string) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	k, ok := byName[name]
	if !ok {
		return Entry{}, false
	}
	return registry[k], true
}

// All returns every registered entry, ordered by kind, so
// registry-driven sweeps are deterministic. The slice is fresh per call.
func All() []Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Entry, len(regSorted))
	copy(out, regSorted)
	return out
}

func init() {
	Register(Entry{Kind: Raw, Name: "raw", Label: "Raw (no transport)"})
}

// reqKey identifies one request end-to-end: the requester's IP and
// source port plus the RPC ID. Receivers key duplicate-suppression and
// mark-echo state on it; it matches between a request frame's source
// fields and the response frame's destination fields.
type reqKey struct {
	ip   uint32
	port uint16
	id   uint64
}

// bufList is a byte-slice free list for the frame copies transports
// keep (retransmit masters, cached responses) — the same shape as
// wire.FramePool but private, so transport copies never mingle with
// the wire-ownership pool. Copies that go to the wire are FramePool
// Clones instead.
type bufList struct {
	free [][]byte
}

// get pops a buffer of length n, allocating exactly n on a miss. A
// popped buffer too small for n is dropped, so when an endpoint keeps
// copies of mixed sizes the list converges on its largest size; misses
// stop once the list holds enough of those. Full-frame capacity on a
// miss would instead make every kept copy a 9 KiB buffer, whatever
// the frame it holds.
//
//lhlint:hotpath
func (b *bufList) get(n int) []byte {
	if last := len(b.free) - 1; last >= 0 {
		f := b.free[last]
		b.free[last] = nil
		b.free = b.free[:last]
		if cap(f) >= n {
			return f[:n]
		}
	}
	return make([]byte, n)
}

// put returns a dead buffer to the free list.
//
//lhlint:hotpath
func (b *bufList) put(f []byte) {
	if cap(f) == 0 {
		return
	}
	b.free = append(b.free, f)
}
