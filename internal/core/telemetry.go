package core

import (
	"fmt"
	"sort"
	"strings"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
)

// This file implements the §6 "support for tracing, debugging, and
// statistics" the paper calls out as benefiting from close NIC/OS
// integration: the NIC, sitting on every request, keeps per-service
// telemetry (arrival rates, queueing delay, dispatch-path mix) that the
// OS reads for free over the kernel control channel — no packet sampling
// or host-side instrumentation on the data path.

// SvcTelemetry is the NIC's per-service view.
type SvcTelemetry struct {
	Svc       uint32
	Name      string
	Arrivals  uint64
	Fast      uint64 // dispatched straight into a stalled user load
	ViaKernel uint64 // dispatched through a kernel loop (process switch)
	Queued    uint64 // had to wait in NIC SRAM
	Dropped   uint64
	// QueueDelay is the time requests spent queued before dispatch (ps
	// samples).
	QueueDelay *stats.Histogram
	// RateEWMA is the smoothed arrival rate estimate in requests/second.
	RateEWMA float64

	rate      *stats.EWMA
	lastAt    sim.Time
	haveFirst bool
}

// telemetryFor returns (allocating) the per-service telemetry record.
func (n *NIC) telemetryFor(svc uint32) *SvcTelemetry {
	tl, ok := n.telemetry[svc]
	if !ok {
		name := ""
		if ep := n.endpoints[svc]; ep != nil {
			name = fmt.Sprintf("svc%d", svc)
		}
		tl = &SvcTelemetry{
			Svc:        svc,
			Name:       name,
			QueueDelay: stats.NewHistogram(),
			rate:       stats.NewEWMA(0.05),
		}
		n.telemetry[svc] = tl
	}
	return tl
}

// noteArrival records a decoded request for a service.
func (n *NIC) noteArrival(svc uint32) {
	tl := n.telemetryFor(svc)
	tl.Arrivals++
	now := n.sim.Now()
	if tl.haveFirst && now > tl.lastAt {
		gap := (now - tl.lastAt).Seconds()
		tl.rate.Observe(1 / gap)
		tl.RateEWMA = tl.rate.Value()
	}
	tl.haveFirst = true
	tl.lastAt = now
}

// noteDispatch records how a request reached a core and its queueing
// delay.
func (n *NIC) noteDispatch(req *inflight, kernel bool) {
	tl := n.telemetryFor(req.svc)
	if kernel {
		tl.ViaKernel++
	} else {
		tl.Fast++
	}
	delay := n.sim.Now() - req.arriveAt
	if delay > 0 {
		tl.QueueDelay.Record(int64(delay))
	} else {
		tl.QueueDelay.Record(0)
	}
}

// Telemetry returns the NIC's view of one service (nil if it has seen no
// traffic).
func (n *NIC) Telemetry(svc uint32) *SvcTelemetry { return n.telemetry[svc] }

// TelemetryReport renders all services' telemetry, sorted by service ID —
// what an operator would read through the kernel control channel.
func (n *NIC) TelemetryReport() string {
	ids := make([]int, 0, len(n.telemetry))
	for id := range n.telemetry {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "lauberhorn NIC telemetry (%d services)\n", len(ids))
	for _, id := range ids {
		tl := n.telemetry[uint32(id)]
		p := tl.QueueDelay.Percentiles(0.5, 0.99)
		fmt.Fprintf(&b, "  svc %-4d arrivals=%-7d fast=%-7d kernel=%-6d queued=%-6d dropped=%-4d rate=%.0f/s qdelay{p50=%v p99=%v}\n",
			tl.Svc, tl.Arrivals, tl.Fast, tl.ViaKernel, tl.Queued, tl.Dropped,
			tl.RateEWMA,
			sim.Time(p[0]),
			sim.Time(p[1]))
	}
	return b.String()
}
