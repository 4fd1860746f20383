package cluster

import (
	"fmt"
	"strings"
	"testing"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
	"lauberhorn/internal/workload"
)

// echoHost returns a HostSpec with n sequential echo services starting at
// port 9000 (IDs base+1..base+n).
func echoHost(name string, stack Stack, cores, n int, base uint32, port uint16, t sim.Time) HostSpec {
	svcs := make([]ServiceSpec, n)
	for i := range svcs {
		svcs[i] = ServiceSpec{ID: base + uint32(i+1), Port: port + uint16(i), Time: t}
	}
	return HostSpec{Name: name, Stack: stack, Cores: cores, Services: svcs}
}

func TestIncastTopology(t *testing.T) {
	// 3 clients fan into one Lauberhorn server through the switch.
	spec := Spec{
		Seed:  42,
		Hosts: []HostSpec{echoHost("srv", Lauberhorn, 2, 1, 0, 9000, 500*sim.Nanosecond)},
	}
	for _, name := range []string{"c0", "c1", "c2"} {
		spec.Clients = append(spec.Clients, ClientSpec{
			Name: name, Size: workload.FixedSize{N: 64},
			Arrivals: workload.RatePerSec(20_000),
		})
	}
	u := Build(spec)
	if u.Switch == nil || u.Switch.NumPorts() != 4 {
		t.Fatalf("switch ports = %v", u.Switch)
	}
	u.RunMeasured(5*sim.Millisecond, 15*sim.Millisecond)

	srv := u.Host("srv")
	if srv.MeasuredServed() == 0 {
		t.Fatal("server served nothing")
	}
	var sent uint64
	for _, c := range u.Clients {
		if c.Gen.Latency.Count() == 0 {
			t.Errorf("client %s recorded no latencies", c.Spec.Name)
		}
		sent += c.MeasuredSent()
	}
	if sent == 0 || srv.MeasuredServed() > sent {
		t.Fatalf("served %d vs sent %d", srv.MeasuredServed(), sent)
	}
	// After FDB learning all traffic is unicast: far more forwards than
	// floods.
	if u.Switch.Forwarded < 100 || u.Switch.Flooded > u.Switch.Forwarded/10 {
		t.Errorf("switch fwd=%d flood=%d; expected learned unicast fabric",
			u.Switch.Forwarded, u.Switch.Flooded)
	}
	if got := u.MergedLatency().Count(); got == 0 {
		t.Error("merged latency empty")
	}
}

func TestMixedStackCluster(t *testing.T) {
	spec := Spec{
		Seed: 7,
		Hosts: []HostSpec{
			echoHost("lh", Lauberhorn, 2, 2, 0, 9000, sim.Microsecond),
			echoHost("byp", Bypass, 2, 2, 10, 9100, sim.Microsecond),
			echoHost("krn", Kernel, 2, 2, 20, 9200, sim.Microsecond),
		},
		Clients: []ClientSpec{
			{Name: "a", Size: workload.FixedSize{N: 64}, Arrivals: workload.RatePerSec(30_000)},
			{Name: "b", Size: workload.FixedSize{N: 64}, Arrivals: workload.RatePerSec(30_000),
				Popularity: workload.NewZipf(6, 1.0)},
		},
	}
	u := Build(spec)
	u.RunMeasured(5*sim.Millisecond, 15*sim.Millisecond)
	for _, h := range u.Hosts {
		if h.MeasuredServed() == 0 {
			t.Errorf("host %s (%s) served nothing", h.Spec.Name, h.Label)
		}
		if u.HostLatency(h.Spec.Name).Count() == 0 {
			t.Errorf("host %s has no latency samples", h.Spec.Name)
		}
		if h.Energy() <= 0 {
			t.Errorf("host %s reports no energy", h.Spec.Name)
		}
	}
	if u.TotalMeasuredServed() == 0 || u.TotalMeasuredSent() == 0 {
		t.Fatal("cluster-wide counters empty")
	}
}

// TestClusterDeterminism builds and runs the same switched mixed spec
// twice and demands identical results — the property the experiment
// runner's -parallel byte-identity rests on.
func TestClusterDeterminism(t *testing.T) {
	run := func() (uint64, uint64, int64) {
		u := Build(Spec{
			Seed: 3,
			Hosts: []HostSpec{
				echoHost("lh", Lauberhorn, 1, 1, 0, 9000, 0),
				echoHost("krn", Kernel, 1, 1, 10, 9100, 0),
			},
			Clients: []ClientSpec{
				{Name: "a", Size: workload.CloudRPC(), Arrivals: workload.RatePerSec(40_000)},
				{Name: "b", Size: workload.CloudRPC(), Arrivals: workload.RatePerSec(40_000)},
			},
		})
		u.RunMeasured(3*sim.Millisecond, 10*sim.Millisecond)
		return u.TotalMeasuredServed(), u.TotalMeasuredSent(), u.MergedLatency().Percentile(0.99)
	}
	s1, n1, p1 := run()
	s2, n2, p2 := run()
	if s1 != s2 || n1 != n2 || p1 != p2 {
		t.Fatalf("nondeterministic cluster: (%d,%d,%d) vs (%d,%d,%d)", s1, n1, p1, s2, n2, p2)
	}
	if s1 == 0 {
		t.Fatal("determinism check vacuous: nothing served")
	}
}

// TestClientNonInterference pins the derived-seed contract: adding a
// second client must not perturb the first client's open-loop request
// stream (its arrival draws come from a private RNG, not a shared one).
func TestClientNonInterference(t *testing.T) {
	base := Spec{
		Seed:  11,
		Hosts: []HostSpec{echoHost("srv", Lauberhorn, 2, 1, 0, 9000, 0)},
		Clients: []ClientSpec{
			{Name: "a", Size: workload.CloudRPC(), Arrivals: workload.RatePerSec(25_000)},
		},
	}
	solo := Build(base)
	solo.RunMeasured(2*sim.Millisecond, 10*sim.Millisecond)

	withPeer := base
	withPeer.Clients = append([]ClientSpec{}, base.Clients...)
	withPeer.Clients = append(withPeer.Clients, ClientSpec{
		Name: "b", Size: workload.CloudRPC(), Arrivals: workload.RatePerSec(25_000),
	})
	both := Build(withPeer)
	both.RunMeasured(2*sim.Millisecond, 10*sim.Millisecond)

	// Open-loop sends depend only on the client's own arrival stream, so
	// client a must emit exactly the same number of requests either way.
	if a, b := solo.Clients[0].Gen.Sent, both.Clients[0].Gen.Sent; a != b {
		t.Fatalf("client a sent %d solo but %d with a peer; streams interfered", a, b)
	}
	if solo.Clients[0].Gen.Sent == 0 {
		t.Fatal("non-interference check vacuous: nothing sent")
	}
}

// TestCrossTrafficIsolated pins the NIC-level filtering the cluster layer
// relies on: flooded frames addressed to one host must not be served by
// another (DMA NICs accept everything unless the builder arms FilterIP).
func TestCrossTrafficIsolated(t *testing.T) {
	u := Build(Spec{
		Seed: 5,
		Hosts: []HostSpec{
			echoHost("lh", Lauberhorn, 1, 1, 0, 9000, 0),
			echoHost("byp", Bypass, 1, 1, 10, 9000, 0), // same port on purpose
		},
		Clients: []ClientSpec{{
			Name: "a", Size: workload.FixedSize{N: 64},
			Arrivals: workload.RatePerSec(10_000),
			Targets:  []TargetSpec{{Host: "lh", Service: 1}},
		}},
	})
	u.RunMeasured(2*sim.Millisecond, 8*sim.Millisecond)
	if u.Host("lh").MeasuredServed() == 0 {
		t.Fatal("target host served nothing")
	}
	if n := u.Host("byp").Served(); n != 0 {
		t.Fatalf("bystander host served %d flooded requests", n)
	}
	if f := u.Host("byp").NICDMA.Stats().RxFiltered; f == 0 {
		t.Error("bystander NIC filtered nothing; flood never reached it?")
	}
}

func TestDeriveSeedStable(t *testing.T) {
	if DeriveSeed(1, 0) == DeriveSeed(1, 1) {
		t.Error("adjacent client seeds collide")
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("universe seed ignored")
	}
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Error("seed derivation unstable")
	}
	if DeriveSeed(1, 3) == 0 {
		t.Error("derived seed may never be zero")
	}
}

// TestValidateAndBuildE pins the non-panicking entry points: Validate
// reports spec mistakes as errors (including the driver-level bypass
// steering check, with its exact message), BuildE surfaces them instead
// of panicking, and a valid spec builds.
func TestValidateAndBuildE(t *testing.T) {
	okHost := echoHost("h", Lauberhorn, 1, 1, 0, 9000, 0)
	okClient := ClientSpec{Name: "c", Size: workload.FixedSize{N: 64}}

	cases := []struct {
		name, frag string
		sp         Spec
	}{
		{"dup-host", `duplicate host name "h"`,
			Spec{Hosts: []HostSpec{okHost, okHost}}},
		{"unknown-target-host", `targets unknown host "nope"`,
			Spec{Hosts: []HostSpec{okHost},
				Clients: []ClientSpec{{Name: "c", Size: workload.FixedSize{N: 64},
					Targets: []TargetSpec{{Host: "nope", Service: 1}}}}}},
		{"unknown-target-service", `targets service 99, which host "h" does not export`,
			Spec{Hosts: []HostSpec{okHost},
				Clients: []ClientSpec{{Name: "c", Size: workload.FixedSize{N: 64},
					Targets: []TargetSpec{{Host: "h", Service: 99}}}}}},
		{"bypass-steering", `cluster: bypass host "b" ports 9000 and 9002 steer to the same queue (0 mod 2)`,
			Spec{Hosts: []HostSpec{
				{Name: "b", Stack: Bypass, Cores: 1, Services: []ServiceSpec{
					{ID: 1, Port: 9000}, {ID: 2, Port: 9002}}}},
				Clients: []ClientSpec{okClient}}},
		{"unknown-stack", "unknown stack 99",
			Spec{Hosts: []HostSpec{
				{Name: "h", Stack: Stack(99), Cores: 1,
					Services: []ServiceSpec{{ID: 1, Port: 9000}}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sp.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.frag)
			}
			u, berr := BuildE(tc.sp)
			if u != nil || berr == nil || berr.Error() != err.Error() {
				t.Fatalf("BuildE() = (%v, %v), want (nil, %v)", u, berr, err)
			}
		})
	}

	good := Spec{Hosts: []HostSpec{okHost}, Clients: []ClientSpec{okClient}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	u, err := BuildE(good)
	if err != nil || u == nil || u.Host("h") == nil {
		t.Fatalf("BuildE on valid spec = (%v, %v)", u, err)
	}
}

// TestServedForUnknownPanics pins the Host.ServedFor contract on every
// driver family: misnaming a service is the same programming error as
// misnaming a host, so it panics instead of silently returning 0.
func TestServedForUnknownPanics(t *testing.T) {
	for _, stack := range []Stack{Lauberhorn, Bypass, Kernel, Hybrid} {
		t.Run(stack.Label(), func(t *testing.T) {
			u := Build(Spec{
				Seed:    1,
				Hosts:   []HostSpec{echoHost("h", stack, 1, 1, 0, 9000, 0)},
				Clients: []ClientSpec{{Name: "c", Size: workload.FixedSize{N: 64}}},
			})
			if got := u.Host("h").ServedFor(1); got != 0 {
				t.Fatalf("fresh host ServedFor(1) = %d", got)
			}
			defer func() {
				p := recover()
				if p == nil {
					t.Fatal("ServedFor(99) did not panic for an unknown service")
				}
				if !strings.Contains(fmt.Sprint(p), "exports no service 99") {
					t.Fatalf("panic %v does not name the missing service", p)
				}
			}()
			u.Host("h").ServedFor(99)
		})
	}
}

// TestHybridStackFromSpec pins the fourth first-class stack: a Hybrid
// host builds from a plain Spec, serves traffic, and exposes the same
// Lauberhorn host view (the driver seam, not a private rig, carries the
// §6 DMA fallback).
func TestHybridStackFromSpec(t *testing.T) {
	u := Build(Spec{
		Seed:  21,
		Hosts: []HostSpec{echoHost("srv", Hybrid, 2, 2, 0, 9000, 500*sim.Nanosecond)},
		Clients: []ClientSpec{{
			Name: "c", Size: workload.FixedSize{N: 8192},
			Arrivals: workload.RatePerSec(5_000),
		}},
	})
	srv := u.Host("srv")
	if srv.LH == nil {
		t.Fatal("hybrid host exposes no Lauberhorn view")
	}
	if thr := srv.LH.Config().NIC.DMAThreshold; thr != 4096 {
		t.Fatalf("hybrid DMA threshold = %d, want 4096", thr)
	}
	if srv.Label != Hybrid.Label() || srv.Label == Lauberhorn.Label() {
		t.Fatalf("hybrid label %q", srv.Label)
	}
	u.RunMeasured(5*sim.Millisecond, 15*sim.Millisecond)
	if srv.MeasuredServed() == 0 {
		t.Fatal("hybrid host served nothing")
	}

	// The plain Lauberhorn driver keeps pure cache-line delivery.
	lh := Build(Spec{
		Seed:    21,
		Hosts:   []HostSpec{echoHost("srv", Lauberhorn, 2, 2, 0, 9000, 500*sim.Nanosecond)},
		Clients: []ClientSpec{{Name: "c", Size: workload.FixedSize{N: 64}}},
	})
	if thr := lh.Host("srv").LH.Config().NIC.DMAThreshold; thr != 0 {
		t.Fatalf("Lauberhorn DMA threshold = %d, want 0 (pure cache-line)", thr)
	}
}

func TestSpecValidation(t *testing.T) {
	mustPanic := func(name, frag string, sp Spec) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatal("invalid spec built successfully")
				}
				if err, ok := p.(error); !ok || !strings.Contains(err.Error(), frag) {
					t.Fatalf("panic %v does not mention %q", p, frag)
				}
			}()
			Build(sp)
		})
	}
	okHost := echoHost("h", Lauberhorn, 1, 1, 0, 9000, 0)
	okClient := ClientSpec{Name: "c", Size: workload.FixedSize{N: 64}}

	mustPanic("no-hosts", "no hosts", Spec{})
	mustPanic("direct-shape", "Direct topology", Spec{Direct: true,
		Hosts:   []HostSpec{okHost, echoHost("h2", Kernel, 1, 1, 5, 9100, 0)},
		Clients: []ClientSpec{okClient}})
	mustPanic("dup-host", "duplicate host", Spec{Hosts: []HostSpec{okHost, okHost}})
	mustPanic("no-cores", "needs cores", Spec{Hosts: []HostSpec{
		{Name: "h", Stack: Kernel, Services: []ServiceSpec{{ID: 1, Port: 9000}}}}})
	mustPanic("no-services", "no services", Spec{Hosts: []HostSpec{
		{Name: "h", Stack: Kernel, Cores: 1}}})
	mustPanic("dup-service", "twice", Spec{Hosts: []HostSpec{
		{Name: "h", Stack: Kernel, Cores: 1, Services: []ServiceSpec{
			{ID: 1, Port: 9000}, {ID: 1, Port: 9001}}}}})
	mustPanic("dup-port", "binds port", Spec{Hosts: []HostSpec{
		{Name: "h", Stack: Kernel, Cores: 1, Services: []ServiceSpec{
			{ID: 1, Port: 9000}, {ID: 2, Port: 9000}}}}})
	mustPanic("bypass-residue", "same queue", Spec{Hosts: []HostSpec{
		{Name: "h", Stack: Bypass, Cores: 1, Services: []ServiceSpec{
			{ID: 1, Port: 9000}, {ID: 2, Port: 9002}}}}})
	mustPanic("unknown-target-host", "unknown host", Spec{Hosts: []HostSpec{okHost},
		Clients: []ClientSpec{{Name: "c", Size: workload.FixedSize{N: 64},
			Targets: []TargetSpec{{Host: "nope", Service: 1}}}}})
	mustPanic("unknown-target-svc", "does not export", Spec{Hosts: []HostSpec{okHost},
		Clients: []ClientSpec{{Name: "c", Size: workload.FixedSize{N: 64},
			Targets: []TargetSpec{{Host: "h", Service: 99}}}}})
	mustPanic("no-size", "no size distribution", Spec{Hosts: []HostSpec{okHost},
		Clients: []ClientSpec{{Name: "c"}}})
	mustPanic("dup-client", "duplicate client", Spec{Hosts: []HostSpec{okHost},
		Clients: []ClientSpec{okClient, okClient}})
	// A pinned endpoint colliding with a later auto-assigned one must be
	// rejected, not silently confuse the switch FDB.
	pinned := echoHost("h1", Lauberhorn, 1, 1, 0, 9000, 0)
	pinned.Endpoint = autoHostEP(1)
	mustPanic("ep-collision", "share MAC", Spec{Hosts: []HostSpec{
		pinned, echoHost("h2", Kernel, 1, 1, 5, 9100, 0)}})
	ipClash := echoHost("h1", Lauberhorn, 1, 1, 0, 9000, 0)
	ipClash.Endpoint = wire.Endpoint{MAC: wire.MAC{2, 9, 9, 9, 9, 9}, IP: autoClientEP(0).IP}
	mustPanic("ip-collision", "share IP", Spec{Hosts: []HostSpec{ipClash},
		Clients: []ClientSpec{okClient}})
	mustPanic("unnamed-client", "has no name", Spec{Hosts: []HostSpec{okHost},
		Clients: []ClientSpec{{Size: workload.FixedSize{N: 64}}}})
}

// TestAutoEndpointsWide pins the two-byte auto-addressing: the first 254
// machines keep their historical addresses, and 1500 of each class get
// distinct MACs and IPs with no host/client collision.
func TestAutoEndpointsWide(t *testing.T) {
	if got, want := autoHostEP(0), (wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 1, 1}, IP: wire.IP{10, 0, 1, 1}}); got != want {
		t.Fatalf("autoHostEP(0) = %+v, want %+v", got, want)
	}
	if got, want := autoClientEP(253), (wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 2, 254}, IP: wire.IP{10, 0, 2, 254}}); got != want {
		t.Fatalf("autoClientEP(253) = %+v, want %+v", got, want)
	}
	macs := make(map[wire.MAC]bool)
	ips := make(map[wire.IP]bool)
	for i := 0; i < 1500; i++ {
		for _, ep := range []wire.Endpoint{autoHostEP(i), autoClientEP(i)} {
			if macs[ep.MAC] || ips[ep.IP] {
				t.Fatalf("auto endpoint collision at index %d: %+v", i, ep)
			}
			macs[ep.MAC] = true
			ips[ep.IP] = true
			if ep.IP[3] == 0 {
				t.Fatalf("index %d produced a .0 address: %+v", i, ep)
			}
		}
	}
}
