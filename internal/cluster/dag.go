package cluster

import (
	"fmt"

	"lauberhorn/internal/core"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/wire"
)

// Service dependency DAGs (Spec.DAG): the declarative generalization of
// e14's hand-wired nested RPC. Validate checks the graph against the
// host population; the builder then swaps each interior node's echo
// handler for a suspending handler that issues the node's child calls
// in edge order — sequentially, because a handler thread stalls on one
// reply line at a time — and responds to its own caller once the last
// child answers. Per-edge round trips land in Universe.DAGEdges
// together with latency-budget violation counts.

// validateDAG checks Spec.DAG: graph structure (via workload's
// validator), service placement, nested-call support, and per-edge
// budget feasibility — a budget below the child's pure service time can
// never be met, whatever the network does.
func (sp *Spec) validateDAG() error {
	d := sp.DAG
	if d == nil {
		return nil
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("cluster: invalid dag: %v", err)
	}
	hosts := make(map[string]*HostSpec, len(sp.Hosts))
	for i := range sp.Hosts {
		hosts[sp.Hosts[i].Name] = &sp.Hosts[i]
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		h, ok := hosts[n.Host]
		if !ok {
			return fmt.Errorf("cluster: dag node %d (%q) runs on unknown host %q", i, n.Name, n.Host)
		}
		if dagService(h, n.Service) == nil {
			return fmt.Errorf("cluster: dag node %d (%q) needs service %d, which host %q does not export",
				i, n.Name, n.Service, n.Host)
		}
		if len(n.Edges) > 0 && h.Stack != Lauberhorn && h.Stack != Hybrid {
			return fmt.Errorf("cluster: dag node %d (%q) issues nested calls, which stack %q on host %q does not support",
				i, n.Name, h.Stack.Label(), n.Host)
		}
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		for _, e := range n.Edges {
			if e.Budget == 0 {
				continue
			}
			child := &d.Nodes[e.To]
			svc := dagService(hosts[child.Host], child.Service)
			if e.Budget < svc.Time {
				return fmt.Errorf("cluster: dag edge %q->%q budget %v cannot cover service time %v of service %d on host %q",
					n.Name, child.Name, e.Budget, svc.Time, child.Service, child.Host)
			}
		}
	}
	return nil
}

// dagService finds a service spec by ID on a host spec.
func dagService(h *HostSpec, id uint32) *ServiceSpec {
	for j := range h.Services {
		if h.Services[j].ID == id {
			return &h.Services[j]
		}
	}
	return nil
}

// DAGEdgeStat aggregates one DAG edge's nested calls: the parent
// records each child round trip (call issue to response, measured on
// the parent's simulator) and counts budget violations. Stats are reset
// at RunMeasured's warm-up boundary like client histograms.
type DAGEdgeStat struct {
	// From and To index the parent and child in Spec.DAG.Nodes.
	From, To int
	// Label is "parent->child" by node name.
	Label string
	// Budget is the edge's latency budget (0 = unbudgeted).
	Budget sim.Time
	// Lat holds the edge's child-call round trips.
	Lat *stats.Histogram
	// Violations counts calls whose round trip exceeded Budget.
	Violations uint64
}

// dagCall is one prepared nested call of an interior node's handler.
type dagCall struct {
	dst  wire.Endpoint
	svc  uint32
	stat *DAGEdgeStat
}

// wireDAG lowers Spec.DAG onto the built hosts (between service startup
// and fault scheduling): per-edge stats in declaration order, then one
// suspending handler per interior node.
func (u *Universe) wireDAG() {
	d := u.Spec.DAG
	if d == nil {
		return
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		for _, e := range n.Edges {
			u.DAGEdges = append(u.DAGEdges, &DAGEdgeStat{
				From: i, To: e.To,
				Label:  n.Name + "->" + d.Nodes[e.To].Name,
				Budget: e.Budget,
				Lat:    stats.NewHistogram(),
			})
		}
	}
	ei := 0
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if len(n.Edges) > 0 {
			h := u.byName[n.Host]
			calls := make([]dagCall, len(n.Edges))
			for j, e := range n.Edges {
				child := &d.Nodes[e.To]
				ch := u.byName[child.Host]
				dst := ch.EP
				dst.Port = dagService(&ch.Spec, child.Service).Port
				calls[j] = dagCall{dst: dst, svc: child.Service, stat: u.DAGEdges[ei+j]}
			}
			own := dagService(&h.Spec, n.Service).Time
			if own <= 0 {
				own = 100 * sim.Nanosecond
			}
			wireDAGNode(u.S, h, n.Service, own, calls)
		}
		ei += len(n.Edges)
	}
}

// wireDAGNode swaps the node service's echo handler for the suspending
// fan-out handler. Each in-flight invocation borrows a client channel
// from a per-core free list: a channel's two control lines support one
// outstanding call, and invocations overlap whenever the kernel runs
// several worker threads for the service, so channels must never be
// shared across concurrent handler instances. The pool grows to the
// peak per-core concurrency and is reused thereafter — deterministic,
// since the universe's simulator is single-threaded.
func wireDAGNode(sm *sim.Sim, h *Host, svc uint32, own sim.Time, calls []dagCall) {
	lh := h.LH
	pools := make([][]*core.ClientChan, h.Spec.Cores)
	lh.SetAsyncHandler(svc, 1, func(tc *kernel.TC, coreID int, req []byte, respond func(uint16, []byte)) {
		tc.RunUser(own, func() {
			var ch *core.ClientChan
			if p := pools[coreID]; len(p) > 0 {
				ch = p[len(p)-1]
				pools[coreID] = p[:len(p)-1]
			} else {
				ch = lh.OpenClientChan(coreID)
			}
			var next func(i int)
			next = func(i int) {
				if i == len(calls) {
					pools[coreID] = append(pools[coreID], ch)
					respond(rpc.StatusOK, req)
					return
				}
				c := calls[i]
				start := sm.Now()
				lh.Call(tc, ch, c.svc, 1, c.dst, req, func(status uint16, resp []byte) {
					rtt := sm.Now() - start
					c.stat.Lat.Record(int64(rtt))
					if c.stat.Budget > 0 && rtt > c.stat.Budget {
						c.stat.Violations++
					}
					next(i + 1)
				})
			}
			next(0)
		})
	})
}

// DAGViolations sums budget violations over every DAG edge.
func (u *Universe) DAGViolations() uint64 {
	var n uint64
	for _, e := range u.DAGEdges {
		n += e.Violations
	}
	return n
}

// DAGCalls sums completed nested calls over every DAG edge.
func (u *Universe) DAGCalls() uint64 {
	var n uint64
	for _, e := range u.DAGEdges {
		n += e.Lat.Count()
	}
	return n
}
