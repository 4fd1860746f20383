// Package cluster is the declarative topology layer: a Spec names the
// hosts (each running one of the registered network stacks), the services
// they export, and the load-generating clients; Build turns it into a
// fully wired universe — one sim.Sim, one link per machine, a learning
// fabric.Switch when more than two machines exist — ready to run.
//
// Before this layer every experiment hand-wired exactly one generator to
// one server over a single point-to-point link. A Spec expresses any
// N-client × M-server topology — fan-in/incast, mixed-stack clusters,
// multi-tenant service placements — while the single-host rigs in
// internal/experiments are now just one-host one-client Specs.
//
// Determinism: a built universe is a pure function of the Spec. Every
// client's generator draws from a private RNG stream derived from the
// universe seed and the client's position (see DeriveSeed), so adding or
// removing machines never perturbs the randomness any other machine
// observes, and tables stay byte-identical at any experiment-runner
// parallelism.
//
// Stacks are pluggable: the builder resolves HostSpec.Stack against the
// stackdrv registry and drives every host through the stackdrv.Instance
// lifecycle, so this package never imports stack internals or switches on
// stack kinds. The blank import below installs the in-tree drivers; new
// stacks register themselves the same way.
package cluster

import (
	"fmt"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/sim/shard"
	"lauberhorn/internal/stackdrv"
	_ "lauberhorn/internal/stackdrv/builtin"
	"lauberhorn/internal/transport"
	"lauberhorn/internal/wire"
	"lauberhorn/internal/workload"
)

// Transport selects the per-endpoint transport scheme every machine in
// the universe runs (see internal/transport). It aliases the transport
// registry's Kind; the zero value is transport.Raw — no transport at
// all, the exact pre-transport wiring.
type Transport = transport.Kind

// Stack selects which network architecture a host runs. It aliases the
// stack-driver registry's Kind; the constants below name the in-tree
// drivers (see internal/stackdrv for labels and registration).
type Stack = stackdrv.Kind

const (
	// Lauberhorn is the paper's NIC-as-OS-component stack (internal/core)
	// with pure cache-line delivery.
	Lauberhorn = stackdrv.Lauberhorn
	// Bypass is the kernel-bypass dataplane: one pinned worker per
	// service, port-steered NIC queues (IX/Arrakis-style).
	Bypass = stackdrv.Bypass
	// Kernel is the traditional in-kernel stack over the x86 DMA NIC.
	Kernel = stackdrv.Kernel
	// KernelEnzian is the kernel stack over the Enzian FPGA NIC.
	KernelEnzian = stackdrv.KernelEnzian
	// Hybrid is Lauberhorn with the §6 4 KiB DMA fallback armed: large
	// bodies revert to DMA-based transfers, small ones keep cache lines.
	Hybrid = stackdrv.Hybrid
)

// ServiceSpec is one RPC service exported by a host.
type ServiceSpec struct {
	// ID is the RPC service ID. It must be unique on its host; distinct
	// hosts may reuse IDs, but globally unique IDs keep tables readable.
	ID uint32
	// Port is the UDP port the service listens on. Bypass hosts steer
	// port→queue by Port mod len(Services), so on a Bypass host the ports
	// must cover distinct residues (sequential ports always do).
	Port uint16
	// Time is the handler CPU time per request (echo handler).
	Time sim.Time
	// Handler overrides the default echo handler when non-nil.
	Handler func(req []byte) ([]byte, sim.Time)
	// MinWorkers is the Lauberhorn per-endpoint worker floor.
	MinWorkers int
}

// desc builds the rpc.ServiceDesc for the spec, identical in shape to
// what the point-to-point rigs registered.
func (ss ServiceSpec) desc() *rpc.ServiceDesc {
	h := ss.Handler
	if h == nil {
		st := ss.Time
		h = func(req []byte) ([]byte, sim.Time) { return req, st }
	}
	return &rpc.ServiceDesc{
		ID:   ss.ID,
		Name: fmt.Sprintf("svc%d", ss.ID),
		Methods: []rpc.MethodDesc{{
			ID: 1, Name: "call", CodeAddr: 0x400000 + uint64(ss.ID)*0x1000,
			Handler: h,
		}},
	}
}

// HostSpec is one server machine.
type HostSpec struct {
	// Name identifies the host in targets and results. Required, unique.
	Name  string
	Stack Stack
	Cores int
	// Services are the RPC services the host exports.
	Services []ServiceSpec
	// Endpoint optionally pins the host's MAC/IP; zero auto-assigns
	// 10.0.1.<index+1>.
	Endpoint wire.Endpoint
	// NIC optionally overrides the DMA NIC configuration for
	// Bypass/Kernel hosts. The builder still owns the topology-dependent
	// fields and overwrites them: queue count, port steering, and the
	// destination-IP filter (FilterIP is always armed with the host's own
	// IP, since every cluster host must discard flooded frames). Ignored
	// for Lauberhorn hosts.
	NIC *nicdma.Config
}

// checkParams reduces the host spec to the identity fields a driver's
// topology Check needs: no simulator exists yet and no service
// descriptors are built.
func (h *HostSpec) checkParams() stackdrv.HostParams {
	svcs := make([]stackdrv.Service, len(h.Services))
	for i, ss := range h.Services {
		svcs[i] = stackdrv.Service{ID: ss.ID, Port: ss.Port, MinWorkers: ss.MinWorkers}
	}
	return stackdrv.HostParams{HostName: h.Name, Cores: h.Cores, Services: svcs, NIC: h.NIC}
}

// TargetSpec names one service a client drives, by host name and service
// ID.
type TargetSpec struct {
	Host    string
	Service uint32
	// Size optionally overrides the client's size distribution for this
	// target.
	Size workload.SizeDist
	// Flags are RPC header flags set on requests to this target.
	Flags uint16
}

// ClientSpec is one load-generating machine.
type ClientSpec struct {
	// Name identifies the client. Required, unique.
	Name string
	// Targets lists the services this client drives. Empty means "every
	// service on every host", in spec order.
	Targets []TargetSpec
	// Size is the default request-size distribution (required unless all
	// targets override it).
	Size workload.SizeDist
	// Arrivals drives open-loop generation (may be nil if the experiment
	// sends manually). Stateful arrival processes (e.g. *workload.MMPP)
	// must not be shared between clients or Specs.
	Arrivals workload.ArrivalDist
	// Popularity picks among Targets (nil = uniform).
	Popularity *workload.Zipf
	// Flows is the number of distinct source ports (default 256, as the
	// rigs used).
	Flows int
	// ChurnInterval re-permutes the rank→target mapping at this period.
	ChurnInterval sim.Time
	// Endpoint optionally pins the client's MAC/IP; zero auto-assigns
	// 10.0.2.<index+1>.
	Endpoint wire.Endpoint
	// InheritRNG makes the generator split the universe RNG in
	// construction order instead of using a private stream derived from
	// the universe seed. This is the pre-cluster behavior; the legacy
	// point-to-point rigs set it to stay byte-identical with their
	// original hand-wired construction. New topologies should leave it
	// false so clients are order-independent.
	InheritRNG bool
}

// FabricSpec selects the switch fabric joining the machines. The zero
// value keeps the legacy shapes: a single learning switch (or, with
// Spec.Direct, a point-to-point link). Setting Spines or RingSwitches
// builds a multi-tier routed fabric via fabric.NewTopology: statically
// programmed FDBs (no flooding), deterministic ECMP across spine
// uplinks, and per-link contention.
type FabricSpec struct {
	// Spines > 0 builds a two-tier spine-leaf Clos with this many spines
	// (per pod when Cores > 0 makes it three-tier).
	Spines int
	// Cores > 0 grows the spine-leaf fabric a third tier: Cores core
	// switches above per-pod spine groups. Requires Spines > 0 and
	// PodLeaves > 0 (see fabric.TopoSpec).
	Cores int
	// PodLeaves is how many leaves share one pod (3-tier only).
	PodLeaves int
	// LeafPorts is how many machines (clients and hosts, in attach
	// order: clients first, then hosts, each in spec order) share one
	// leaf or ring switch. Required for multi-tier fabrics.
	LeafPorts int
	// RingSwitches >= 3 builds a K-switch ring instead of a Clos.
	RingSwitches int
	// Uplink parameterizes inter-switch links (zero = Spec.Net).
	Uplink fabric.NetParams
	// ECMPSeed salts the switches' flow hashing; zero derives it from
	// the universe seed, so path selection is a pure function of the
	// Spec either way.
	ECMPSeed uint64
}

// multiTier reports whether the spec asks for a routed multi-switch
// fabric.
func (f FabricSpec) multiTier() bool { return f.Spines > 0 || f.RingSwitches > 0 }

// leaves returns how many access switches the fabric will have for n
// machines.
func (f FabricSpec) leaves(n int) int {
	if f.RingSwitches > 0 {
		return f.RingSwitches
	}
	return (n + f.LeafPorts - 1) / f.LeafPorts
}

// FaultKind selects what a FaultSpec does to its target.
type FaultKind int

const (
	// FaultLinkDown takes the target link's carrier down at At and —
	// when Duration > 0 — back up at At+Duration.
	FaultLinkDown FaultKind = iota
	// FaultLinkFlap cycles the target link: from At, down for DownFor
	// and up for UpFor, Cycles times (ending up).
	FaultLinkFlap
	// FaultDrain drains the target switch from At to At+Duration
	// (forever when Duration is zero): every ingress frame is dropped.
	FaultDrain
)

// FaultSpec schedules one availability fault against a fabric element.
// Faults become ordinary simulator events at build time, in spec order,
// so a fault schedule is deterministic input like everything else in a
// Spec.
//
// Target resolution for link faults (FaultLinkDown, FaultLinkFlap):
// Machine, when non-empty, names a host or client whose access link is
// the target. Otherwise Leaf/Spine name a spine-leaf uplink, or — in a
// ring fabric — Leaf names ring segment Leaf→Leaf+1.
//
// Target resolution for FaultDrain: Leaf >= 0 names a leaf/ring switch
// (the single star switch counts as leaf 0); Leaf < 0 drains spine
// Spine.
type FaultSpec struct {
	Kind    FaultKind
	Machine string
	Leaf    int
	Spine   int

	At       sim.Time
	Duration sim.Time
	// Flap parameters (FaultLinkFlap only).
	DownFor, UpFor sim.Time
	Cycles         int
}

// Spec is a declarative multi-host scenario: Build wires it up.
type Spec struct {
	// Seed seeds the universe's simulator; per-client generator streams
	// are derived from it (see DeriveSeed).
	Seed uint64
	// Net is the link parameter set used for every machine's link
	// (zero-value = fabric.Net100G).
	Net     fabric.NetParams
	Hosts   []HostSpec
	Clients []ClientSpec
	// Fabric selects the switch fabric (zero = one learning switch).
	Fabric FabricSpec
	// Faults schedules link/switch availability faults on the built
	// universe.
	Faults []FaultSpec
	// Transport selects the transport scheme instantiated per machine
	// endpoint (zero = transport.Raw, no transport).
	Transport Transport
	// DAG optionally declares a service dependency graph: the builder
	// replaces each interior node's echo handler with a suspending
	// handler that issues nested calls to the node's children (in edge
	// order) before responding, and aggregates per-edge round-trip
	// histograms and budget violations (Universe.DAGEdges). Nodes must
	// place services that exist on Lauberhorn-family hosts.
	DAG *workload.DAG
	// Direct wires the (single) client straight to the (single) host over
	// one point-to-point link with no switch — the original rig topology.
	// It requires exactly one host and one client.
	Direct bool
	// Shards > 1 partitions the universe along the fabric's leaf
	// boundaries for parallel execution: leaf l — its switch, its
	// machines, their access links — lives on shard Sim l mod Shards,
	// while spines and cores stay on the hub Sim; inter-shard uplinks
	// exchange frames through conservative-lookahead channels
	// (internal/sim/shard). A sharded universe produces byte-identical
	// results to Shards == 0: partitioning is an execution detail, not a
	// model change. Requires a spine-leaf fabric with positive uplink
	// lookahead and no InheritRNG clients; the shard count is clamped to
	// the leaf count.
	Shards int
}

// fabricKind names the fabric shape for stackdrv.FabricInfo.
func (sp *Spec) fabricKind() string {
	switch {
	case sp.Direct:
		return "direct"
	case sp.Fabric.RingSwitches > 0:
		return "ring"
	case sp.Fabric.Spines > 0:
		return "spineleaf"
	default:
		return "star"
	}
}

// fabricInfo places the machine with the given attach index (clients
// first, then hosts) for driver topology checks.
func (sp *Spec) fabricInfo(attachIdx int) stackdrv.FabricInfo {
	info := stackdrv.FabricInfo{Kind: sp.fabricKind()}
	switch info.Kind {
	case "direct":
	case "star":
		info.Tiers = 1
	case "ring":
		info.Tiers = 1
		info.Leaf = attachIdx / sp.Fabric.LeafPorts
	case "spineleaf":
		info.Tiers = 2
		if sp.Fabric.Cores > 0 {
			info.Tiers = 3
		}
		info.Leaf = attachIdx / sp.Fabric.LeafPorts
		info.Spines = sp.Fabric.Spines
	}
	return info
}

// DeriveSeed maps (universe seed, client index) to the client's private
// RNG seed via one splitmix64 round over both inputs. It is exported so
// tests can predict the stream a built client will draw.
func DeriveSeed(universe uint64, index int) uint64 {
	x := universe + 0x9e3779b97f4a7c15*uint64(index+1)
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // zero would mean "split the sim RNG"; keep the stream private
	}
	return z
}

// maxAutoMachines is the auto-assignment capacity per machine class:
// indices pack into two address bytes (hi = i/254, lo = i%254), and the
// low byte skips 0 so .0 network addresses never appear.
const maxAutoMachines = 254 * 254

// autoHostEP returns the default endpoint for host index i. Indices
// below 254 keep the historical single-byte form (MAC 2:0:0:0:1:i+1,
// IP 10.0.1.i+1); larger clusters spill into the hi byte.
func autoHostEP(i int) wire.Endpoint {
	hi, lo := byte(i/254), byte(i%254)
	return wire.Endpoint{
		MAC: wire.MAC{2, 0, 0, hi, 1, lo + 1},
		IP:  wire.IP{10, hi, 1, lo + 1},
	}
}

// autoClientEP returns the default endpoint for client index i (see
// autoHostEP; clients use 2 where hosts use 1).
func autoClientEP(i int) wire.Endpoint {
	hi, lo := byte(i/254), byte(i%254)
	return wire.Endpoint{
		MAC: wire.MAC{2, 0, 0, hi, 2, lo + 1},
		IP:  wire.IP{10, hi, 2, lo + 1},
	}
}

// Validate checks the spec for the mistakes that would otherwise surface
// as baffling simulation behavior: structural errors (duplicate names,
// missing cores/services/sizes, endpoint collisions, unknown targets or
// stacks) plus each host driver's own topology check (e.g. the bypass
// port-steering collision). BuildE returns exactly these errors; Build
// panics on them.
func (sp *Spec) Validate() error {
	if len(sp.Hosts) == 0 {
		return fmt.Errorf("cluster: spec has no hosts")
	}
	// Auto-assignment packs machine indices into two address bytes.
	if len(sp.Hosts) > maxAutoMachines || len(sp.Clients) > maxAutoMachines {
		return fmt.Errorf("cluster: at most %d hosts and %d clients (%d/%d given)",
			maxAutoMachines, maxAutoMachines, len(sp.Hosts), len(sp.Clients))
	}
	// Every machine — pinned or auto-assigned — must have a unique MAC
	// and IP, or the switch FDB and the IP filters deliver garbage.
	macs := make(map[wire.MAC]string)
	ips := make(map[wire.IP]string)
	claim := func(ep wire.Endpoint, who string) error {
		if prev, dup := macs[ep.MAC]; dup {
			return fmt.Errorf("cluster: %s and %s share MAC %v", prev, who, ep.MAC)
		}
		macs[ep.MAC] = who
		if prev, dup := ips[ep.IP]; dup {
			return fmt.Errorf("cluster: %s and %s share IP %v", prev, who, ep.IP)
		}
		ips[ep.IP] = who
		return nil
	}
	for i := range sp.Hosts {
		ep := sp.Hosts[i].Endpoint
		if ep == (wire.Endpoint{}) {
			ep = autoHostEP(i)
		}
		if err := claim(ep, fmt.Sprintf("host %q", sp.Hosts[i].Name)); err != nil {
			return err
		}
	}
	for i := range sp.Clients {
		ep := sp.Clients[i].Endpoint
		if ep == (wire.Endpoint{}) {
			ep = autoClientEP(i)
		}
		if err := claim(ep, fmt.Sprintf("client %q", sp.Clients[i].Name)); err != nil {
			return err
		}
	}
	if sp.Direct && (len(sp.Hosts) != 1 || len(sp.Clients) != 1) {
		return fmt.Errorf("cluster: Direct topology needs exactly 1 host and 1 client, got %d/%d",
			len(sp.Hosts), len(sp.Clients))
	}
	if _, ok := transport.Lookup(sp.Transport); !ok {
		return fmt.Errorf("cluster: unknown transport %d", int(sp.Transport))
	}
	if err := sp.validateFabric(); err != nil {
		return err
	}
	if err := sp.validateShards(); err != nil {
		return err
	}
	if err := sp.validateFaults(); err != nil {
		return err
	}
	hostNames := make(map[string]*HostSpec, len(sp.Hosts))
	for i := range sp.Hosts {
		h := &sp.Hosts[i]
		if h.Name == "" {
			return fmt.Errorf("cluster: host %d has no name", i)
		}
		if _, dup := hostNames[h.Name]; dup {
			return fmt.Errorf("cluster: duplicate host name %q", h.Name)
		}
		hostNames[h.Name] = h
		if h.Cores <= 0 {
			return fmt.Errorf("cluster: host %q needs cores", h.Name)
		}
		if len(h.Services) == 0 {
			return fmt.Errorf("cluster: host %q exports no services", h.Name)
		}
		ids := make(map[uint32]bool)
		ports := make(map[uint16]bool)
		for _, svc := range h.Services {
			if ids[svc.ID] {
				return fmt.Errorf("cluster: host %q registers service ID %d twice", h.Name, svc.ID)
			}
			ids[svc.ID] = true
			if ports[svc.Port] {
				return fmt.Errorf("cluster: host %q binds port %d twice", h.Name, svc.Port)
			}
			ports[svc.Port] = true
		}
		ent, ok := stackdrv.Lookup(h.Stack)
		if !ok {
			return fmt.Errorf("cluster: host %q uses unknown stack %d", h.Name, int(h.Stack))
		}
		if ent.Check != nil {
			// Driver-specific topology validation, on identity-only params
			// (no simulator exists yet). The host's fabric placement rides
			// along so drivers can veto topologies, not just port plans.
			p := h.checkParams()
			p.Fabric = sp.fabricInfo(len(sp.Clients) + i)
			if err := ent.Check(p); err != nil {
				return err
			}
		}
	}
	clientNames := make(map[string]bool, len(sp.Clients))
	for i := range sp.Clients {
		c := &sp.Clients[i]
		if c.Name == "" {
			return fmt.Errorf("cluster: client %d has no name", i)
		}
		if clientNames[c.Name] {
			return fmt.Errorf("cluster: duplicate client name %q", c.Name)
		}
		clientNames[c.Name] = true
		for _, t := range c.Targets {
			h, ok := hostNames[t.Host]
			if !ok {
				return fmt.Errorf("cluster: client %q targets unknown host %q", c.Name, t.Host)
			}
			found := false
			for _, svc := range h.Services {
				if svc.ID == t.Service {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("cluster: client %q targets service %d, which host %q does not export",
					c.Name, t.Service, t.Host)
			}
			if t.Size == nil && c.Size == nil {
				return fmt.Errorf("cluster: client %q target %q/%d has no size distribution",
					c.Name, t.Host, t.Service)
			}
		}
		if len(c.Targets) == 0 && c.Size == nil {
			return fmt.Errorf("cluster: client %q has no size distribution", c.Name)
		}
	}
	return sp.validateDAG()
}

// validateFabric checks the FabricSpec against the machine population.
func (sp *Spec) validateFabric() error {
	f := sp.Fabric
	if !f.multiTier() {
		if f != (FabricSpec{}) {
			return fmt.Errorf("cluster: FabricSpec sets parameters but neither Spines nor RingSwitches")
		}
		return nil
	}
	if sp.Direct {
		return fmt.Errorf("cluster: Direct topology cannot carry a multi-tier fabric")
	}
	if f.Spines > 0 && f.RingSwitches > 0 {
		return fmt.Errorf("cluster: fabric cannot be both spine-leaf (%d spines) and ring (%d switches)",
			f.Spines, f.RingSwitches)
	}
	if f.LeafPorts <= 0 {
		return fmt.Errorf("cluster: multi-tier fabric needs LeafPorts > 0")
	}
	if f.Cores < 0 || f.PodLeaves < 0 {
		return fmt.Errorf("cluster: negative core tier (Cores=%d PodLeaves=%d)", f.Cores, f.PodLeaves)
	}
	if (f.Cores > 0) != (f.PodLeaves > 0) {
		return fmt.Errorf("cluster: a 3-tier fabric needs both Cores and PodLeaves (got %d/%d)",
			f.Cores, f.PodLeaves)
	}
	if f.Cores > 0 && f.RingSwitches > 0 {
		return fmt.Errorf("cluster: ring fabrics have no core tier")
	}
	n := len(sp.Clients) + len(sp.Hosts)
	if f.RingSwitches > 0 {
		if f.RingSwitches < 3 {
			return fmt.Errorf("cluster: ring fabric needs >= 3 switches, got %d", f.RingSwitches)
		}
		if cap := f.RingSwitches * f.LeafPorts; n > cap {
			return fmt.Errorf("cluster: %d machines exceed ring capacity %d (%d switches x %d ports)",
				n, cap, f.RingSwitches, f.LeafPorts)
		}
	}
	return nil
}

// validateShards checks the sharding request against the fabric and the
// clients. Sharding partitions along leaf boundaries and synchronizes on
// uplink lookahead, so it needs a spine-leaf fabric whose uplinks carry
// nonzero propagation+switching delay; InheritRNG clients are banned
// because they split the (per-shard) simulator RNG in construction
// order, which no longer matches the serial stream.
func (sp *Spec) validateShards() error {
	if sp.Shards < 0 {
		return fmt.Errorf("cluster: negative shard count %d", sp.Shards)
	}
	if sp.Shards <= 1 {
		return nil
	}
	if sp.Fabric.Spines <= 0 {
		return fmt.Errorf("cluster: Shards=%d needs a spine-leaf fabric (sharding splits at leaf boundaries)",
			sp.Shards)
	}
	up := sp.Fabric.Uplink
	if up.Bandwidth == 0 {
		up = sp.Net
		if up.Bandwidth == 0 {
			up = fabric.Net100G
		}
	}
	if up.Lookahead() <= 0 {
		return fmt.Errorf("cluster: sharding needs positive uplink lookahead (PropDelay+SwitchDelay), got %v",
			up.Lookahead())
	}
	for i := range sp.Clients {
		if sp.Clients[i].InheritRNG {
			return fmt.Errorf("cluster: client %q sets InheritRNG, which a sharded build cannot reproduce",
				sp.Clients[i].Name)
		}
	}
	return nil
}

// validateFaults checks every FaultSpec's target and schedule.
func (sp *Spec) validateFaults() error {
	if len(sp.Faults) == 0 {
		return nil
	}
	machines := make(map[string]bool, len(sp.Hosts)+len(sp.Clients))
	for i := range sp.Hosts {
		machines[sp.Hosts[i].Name] = true
	}
	for i := range sp.Clients {
		machines[sp.Clients[i].Name] = true
	}
	n := len(sp.Clients) + len(sp.Hosts)
	leaves := 1 // the single star switch counts as leaf 0
	if sp.Fabric.multiTier() {
		leaves = sp.Fabric.leaves(n)
	}
	for i, fs := range sp.Faults {
		if fs.At < 0 || fs.Duration < 0 {
			return fmt.Errorf("cluster: fault %d has a negative time", i)
		}
		switch fs.Kind {
		case FaultLinkDown:
		case FaultLinkFlap:
			if fs.DownFor <= 0 || fs.UpFor < 0 || fs.Cycles <= 0 {
				return fmt.Errorf("cluster: fault %d flap needs DownFor > 0, UpFor >= 0 and Cycles > 0", i)
			}
		case FaultDrain:
			if sp.Direct {
				return fmt.Errorf("cluster: fault %d drains a switch, but Direct has none", i)
			}
			if fs.Leaf >= 0 {
				if fs.Leaf >= leaves {
					return fmt.Errorf("cluster: fault %d drains switch %d of %d", i, fs.Leaf, leaves)
				}
			} else {
				if sp.Fabric.Spines <= 0 {
					return fmt.Errorf("cluster: fault %d drains a spine, but the fabric has none", i)
				}
				if fs.Spine < 0 || fs.Spine >= sp.Fabric.Spines {
					return fmt.Errorf("cluster: fault %d drains spine %d of %d", i, fs.Spine, sp.Fabric.Spines)
				}
			}
			continue
		default:
			return fmt.Errorf("cluster: fault %d has unknown kind %d", i, int(fs.Kind))
		}
		// Link-fault target.
		if fs.Machine != "" {
			if !machines[fs.Machine] {
				return fmt.Errorf("cluster: fault %d targets unknown machine %q", i, fs.Machine)
			}
			continue
		}
		switch {
		case sp.Fabric.RingSwitches > 0:
			if fs.Leaf < 0 || fs.Leaf >= sp.Fabric.RingSwitches {
				return fmt.Errorf("cluster: fault %d targets ring segment %d of %d",
					i, fs.Leaf, sp.Fabric.RingSwitches)
			}
		case sp.Fabric.Spines > 0:
			if fs.Leaf < 0 || fs.Leaf >= leaves || fs.Spine < 0 || fs.Spine >= sp.Fabric.Spines {
				return fmt.Errorf("cluster: fault %d targets uplink leaf%d:spine%d (%d leaves, %d spines)",
					i, fs.Leaf, fs.Spine, leaves, sp.Fabric.Spines)
			}
		default:
			return fmt.Errorf("cluster: fault %d needs a Machine target in a single-switch fabric", i)
		}
	}
	return nil
}

// Build constructs the universe the spec describes. It panics on an
// invalid spec (experiments treat a bad topology as a programming error;
// the runner converts panics into per-experiment failures). Harnesses
// that want the error instead use BuildE.
func Build(sp Spec) *Universe {
	u, err := BuildE(sp)
	if err != nil {
		panic(err)
	}
	return u
}

// BuildE constructs the universe the spec describes, returning the
// Validate error for an invalid spec instead of panicking.
//
// Construction order is part of the package contract, because event
// sequence numbers and (for InheritRNG clients) RNG splits depend on it:
//
//  1. per-host stack substrates (kernel, NIC), in spec order;
//  2. the switch (unless Direct) and per-client links, generators, and
//     port attachments, in spec order;
//  3. per-host links and port attachments, in spec order;
//  4. per-host service registration and worker startup, in spec order.
//
// For a Direct one-host one-client spec this reproduces, step for step,
// the hand-wired construction of the original experiment rigs, which is
// what keeps their tables byte-identical.
func BuildE(sp Spec) (*Universe, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	net := sp.Net
	if net.Bandwidth == 0 {
		net = fabric.Net100G
	}
	s := sim.New(sp.Seed)
	u := &Universe{S: s, Spec: sp, byName: make(map[string]*Host, len(sp.Hosts))}
	u.Sims = []*sim.Sim{s}

	// Sharded build: one extra Sim per shard, all seeded identically (the
	// only sim-RNG consumer, InheritRNG, is banned under sharding, so the
	// streams are never drawn anyway). The hub Sim u.S keeps the spines
	// and cores; Sims lists shards first, hub last.
	if shards := sp.effectiveShards(); shards > 0 {
		u.shardSims = make([]*sim.Sim, shards)
		for i := range u.shardSims {
			u.shardSims[i] = sim.New(sp.Seed)
		}
		u.Sims = append(append([]*sim.Sim{}, u.shardSims...), s)
		u.exec = shard.NewExecutor(u.Sims)
	}

	// Frame pools: one free list per Sim, armed only where unicast
	// delivery is single-copy (wire.FramePool's ownership contract rules
	// out the flooding learning switch).
	if sp.Direct || sp.Fabric.multiTier() {
		u.pools = make(map[*sim.Sim]*wire.FramePool, len(u.Sims))
		for _, ps := range u.Sims {
			u.pools[ps] = new(wire.FramePool)
		}
	}

	// Phase 1: stack substrates. Constructors schedule no events and draw
	// no randomness, so hosts can be prepared before clients exist.
	for i := range sp.Hosts {
		h := newHost(u, &sp.Hosts[i], i)
		u.Hosts = append(u.Hosts, h)
		u.byName[h.Spec.Name] = h
	}

	// Phase 2: fabric and clients. In a switched universe every machine
	// hangs off its own link whose far side is a switch port; clients
	// claim the low port indices (and, in multi-tier fabrics, the low
	// leaf slots).
	if u.exec != nil {
		u.Topo = fabric.NewTopologySharded(s, sp.topoSpec(net), u.leafSim, u.exec)
	} else if sp.Fabric.multiTier() {
		u.Topo = fabric.NewTopology(s, sp.topoSpec(net))
	} else if !sp.Direct {
		u.Switch = fabric.NewSwitch(s)
	}
	for i := range sp.Clients {
		u.Clients = append(u.Clients, newClient(u, &sp.Clients[i], i, net))
	}

	// Phase 3: host links.
	for _, h := range u.Hosts {
		h.attachLink(u, net)
	}

	// Every link and switch is built: hand out the frame pools, so the
	// fabric returns the frames it drops.
	if u.pools != nil {
		for _, c := range u.Clients {
			c.Link.SetPools(u.FramePool)
		}
		for _, h := range u.Hosts {
			h.Link.SetPools(u.FramePool)
		}
		if u.Topo != nil {
			u.Topo.SetPools(u.FramePool)
		}
	}

	// Phase 4: services and workers, via each host's driver.
	for _, h := range u.Hosts {
		h.start(u)
	}

	// Phase 4b: the service dependency DAG, once every service handler
	// exists to be replaced.
	u.wireDAG()

	// Phase 5: fault schedules, in spec order — deterministic input like
	// everything else.
	for _, f := range sp.Faults {
		u.scheduleFault(f)
	}
	return u, nil
}

// topoSpec lowers the FabricSpec to the fabric package's TopoSpec.
func (sp *Spec) topoSpec(net fabric.NetParams) fabric.TopoSpec {
	up := sp.Fabric.Uplink
	if up.Bandwidth == 0 {
		up = net
	}
	seed := sp.Fabric.ECMPSeed
	if seed == 0 {
		// A private stream off the universe seed, away from any client
		// index DeriveSeed will ever see.
		seed = DeriveSeed(sp.Seed, 1<<16)
	}
	ts := fabric.TopoSpec{LeafPorts: sp.Fabric.LeafPorts, Uplink: up, ECMPSeed: seed}
	if sp.Fabric.RingSwitches > 0 {
		ts.Kind = fabric.TopoRing
		ts.Switches = sp.Fabric.RingSwitches
	} else {
		ts.Kind = fabric.TopoSpineLeaf
		ts.Spines = sp.Fabric.Spines
		ts.Cores = sp.Fabric.Cores
		ts.PodLeaves = sp.Fabric.PodLeaves
	}
	return ts
}

// effectiveShards is the shard-Sim count a build will actually use:
// Spec.Shards clamped to the leaf count (a shard without a leaf would
// idle), and 0 when the spec isn't sharded at all.
func (sp *Spec) effectiveShards() int {
	if sp.Shards <= 1 || sp.Fabric.Spines <= 0 {
		return 0
	}
	n := len(sp.Clients) + len(sp.Hosts)
	shards := sp.Shards
	if leaves := sp.Fabric.leaves(n); shards > leaves {
		shards = leaves
	}
	if shards <= 1 {
		return 0
	}
	return shards
}
