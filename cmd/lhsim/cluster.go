package main

import (
	"fmt"
	"os"
	"time"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/transport"
	"lauberhorn/internal/workload"
)

// clusterOpts carries the lhsim flags the -hosts mode honours.
type clusterOpts struct {
	kind      cluster.Stack
	transport cluster.Transport
	hosts     int // server count (= client count)
	spines    int
	cores     int
	services  int // services per server
	seed      uint64
	rate      float64
	// arrivals builds a fresh arrival-process instance per client (MMPP
	// and Diurnal carry modulating state that must not be shared).
	arrivals    func() workload.ArrivalDist
	serviceTime sim.Time
	size        workload.SizeDist
	zipf        float64
	churn       sim.Time
	flap        bool
	telemetry   bool
	warm, dur   sim.Time
}

// runCluster is lhsim's -hosts mode: an e18-shaped spine-leaf universe —
// n servers (each exporting -services echo services) and n clients
// spraying across all of them, 4 machines per leaf — with an optional
// e19-shaped flap on uplink leaf0:spine0.
func runCluster(o clusterOpts) {
	sp := cluster.Spec{
		Seed:      o.seed,
		Fabric:    cluster.FabricSpec{Spines: o.spines, LeafPorts: 4},
		Transport: o.transport,
	}
	var pop *workload.Zipf
	if o.zipf > 0 {
		pop = workload.NewZipf(o.hosts*o.services, o.zipf)
	}
	for i := 0; i < o.hosts; i++ {
		var svcs []cluster.ServiceSpec
		for s := 0; s < o.services; s++ {
			id := i*o.services + s
			svcs = append(svcs, cluster.ServiceSpec{
				ID: uint32(id + 1), Port: 9000 + uint16(id), Time: o.serviceTime,
			})
		}
		sp.Hosts = append(sp.Hosts, cluster.HostSpec{
			Name: fmt.Sprintf("srv%d", i), Stack: o.kind, Cores: o.cores, Services: svcs,
		})
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name:       fmt.Sprintf("cli%d", i),
			Size:       o.size,
			Arrivals:   o.arrivals(),
			Popularity: pop,
		})
	}
	if o.flap {
		sp.Faults = []cluster.FaultSpec{{
			Kind: cluster.FaultLinkFlap, Leaf: 0, Spine: 0,
			At: o.warm + o.dur/6, DownFor: o.dur / 10, UpFor: o.dur / 15, Cycles: 3,
		}}
	}

	u, err := cluster.BuildE(sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lhsim: %v\n", err)
		os.Exit(1)
	}
	if o.churn > 0 {
		for _, c := range u.Clients {
			c.Gen.SetChurn(o.churn)
		}
	}
	wallStart := time.Now()
	u.RunMeasured(o.warm, o.dur)
	wall := time.Since(wallStart)

	lat := u.MergedLatency()
	fmt.Printf("stack: %s   fabric: %v   arrivals: %s @ %.0f rps x %d clients   window: %v\n",
		u.Hosts[0].Label, u.Topo, o.arrivals(), o.rate, o.hosts, o.dur)
	if o.flap {
		fmt.Printf("fault: uplink leaf0:spine0 flapping (3 cycles inside the window)\n")
	}
	if e, ok := transport.Lookup(o.transport); ok && e.New != nil {
		st := u.TransportStats()
		fmt.Printf("transport: %s   retrans: %d   giveups: %d   marks seen: %d   window cuts: %d   rts/grants: %d/%d\n",
			e.Label, st.Retransmits, st.GiveUps, st.MarksSeen, st.WindowCuts, st.RTSSent, st.GrantsSent)
	}
	fmt.Printf("sent: %d   served: %d   completed: %d   net drops: %d\n",
		u.TotalMeasuredSent(), u.TotalMeasuredServed(), lat.Count(), u.DroppedFrames())
	fmt.Printf("latency: %s\n", lat.Summary(float64(sim.Microsecond), "us"))
	fmt.Printf("spine uplink frames: %v\n", u.Topo.UplinkFrames())
	fmt.Printf("simulator: %d events fired in %v — %.1fM events/sec\n",
		u.EventsFired(), wall.Round(time.Millisecond),
		float64(u.EventsFired())/wall.Seconds()/1e6)
	if o.telemetry {
		if lh := u.Hosts[0].LH; lh != nil {
			fmt.Printf("telemetry (srv0):\n%s", lh.NIC.TelemetryReport())
		} else {
			fmt.Println("(-telemetry is only available on the lauberhorn stack)")
		}
	}
}
