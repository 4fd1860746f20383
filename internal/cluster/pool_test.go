package cluster

import (
	"fmt"
	"testing"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/transport"
	"lauberhorn/internal/workload"
)

// leafSpineSpec is a small spine-leaf scenario: 4 clients and 4 hosts
// across all three stacks, two machines per leaf (clients fill leaves
// 0-1, hosts leaves 2-3).
func leafSpineSpec() Spec {
	sp := Spec{
		Seed: 99,
		Hosts: []HostSpec{
			echoHost("h0", Lauberhorn, 1, 1, 0, 9000, 500*sim.Nanosecond),
			echoHost("h1", Kernel, 1, 1, 10, 9100, 500*sim.Nanosecond),
			echoHost("h2", Bypass, 1, 1, 20, 9200, 500*sim.Nanosecond),
			echoHost("h3", Lauberhorn, 1, 1, 30, 9300, 500*sim.Nanosecond),
		},
		Fabric: FabricSpec{Spines: 2, LeafPorts: 2},
	}
	for i := 0; i < 4; i++ {
		sp.Clients = append(sp.Clients, ClientSpec{
			Name: fmt.Sprint("c", i), Size: workload.FixedSize{N: 128},
			Arrivals: workload.RatePerSec(25_000),
			Targets:  []TargetSpec{{Host: fmt.Sprint("h", i), Service: uint32(i*10 + 1)}},
		})
	}
	return sp
}

// TestFramePoolCycles pins frame recycling at the cluster level: in a
// routed fabric every client draws request frames from the universe's
// pool and returns consumed responses, so after a steady-state run the
// pool shows hits, and buffers migrated from host-built responses keep
// the free list fed.
func TestFramePoolCycles(t *testing.T) {
	u := Build(leafSpineSpec())
	u.RunMeasured(2*sim.Millisecond, 8*sim.Millisecond)
	p := u.FramePool(u.S)
	if p == nil {
		t.Fatal("routed fabric without a frame pool")
	}
	if p.Gets == 0 || p.Puts == 0 || p.Hits == 0 {
		t.Errorf("pool idle (gets=%d hits=%d puts=%d)", p.Gets, p.Hits, p.Puts)
	}
	if p.Hits*2 < p.Gets {
		t.Errorf("steady-state hit rate %d/%d below half", p.Hits, p.Gets)
	}
	// The flooding star topology must not arm a pool.
	star := leafSpineSpec()
	star.Fabric = FabricSpec{}
	us := Build(star)
	if us.FramePool(us.S) != nil {
		t.Error("learning-switch universe armed a frame pool")
	}
}

// poolTotals reports the Gets and Hits of the universe's frame pool.
func poolTotals(t *testing.T, u *Universe) (gets, hits uint64) {
	t.Helper()
	p := u.FramePool(u.S)
	if p == nil {
		t.Fatal("universe armed no frame pool")
	}
	return p.Gets, p.Hits
}

// fabricPoolSpec is a small universe of the fabric-4k shape: kernel-stack
// servers and 4 KiB clients on a leaf-spine fabric under the retry
// transport, with one uplink flapping inside the measured window, so
// frames die at servers, clients, link drops and the retry cache alike.
func fabricPoolSpec() Spec {
	sp := Spec{
		Seed:      3,
		Fabric:    FabricSpec{Spines: 2, LeafPorts: 4},
		Transport: transport.Retry,
		Faults: []FaultSpec{{
			Kind: FaultLinkFlap, Leaf: 0, Spine: 0,
			At: 25 * sim.Millisecond, DownFor: 3 * sim.Millisecond, UpFor: 2 * sim.Millisecond, Cycles: 3,
		}},
	}
	for i := 0; i < 4; i++ {
		sp.Hosts = append(sp.Hosts, echoHost(fmt.Sprint("srv", i), Kernel, 2, 1, uint32(10*i), 9000+uint16(i), sim.Microsecond))
		sp.Clients = append(sp.Clients, ClientSpec{
			Name: fmt.Sprint("cli", i), Size: workload.FixedSize{N: 4096},
			Arrivals: workload.RatePerSec(20_000),
		})
	}
	return sp
}

// lauberhornPoolSpec is one Lauberhorn host on a Direct link: request
// frames die at the NIC's freeInflight, responses at the generator.
func lauberhornPoolSpec() Spec {
	return Spec{
		Seed:   3,
		Direct: true,
		Hosts:  []HostSpec{echoHost("srv", Lauberhorn, 2, 4, 0, 9000, sim.Microsecond)},
		Clients: []ClientSpec{{
			Name: "cli", Size: workload.FixedSize{N: 64},
			Arrivals: workload.RatePerSec(300_000),
		}},
	}
}

// TestFramePoolSteadyState pins the ownership contract end to end: once
// warm, every frame a universe builds comes back to a pool, so misses
// (fresh allocations) in a second measured window stay within 1% of its
// pool Gets.
func TestFramePoolSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   Spec
		faulty bool // the window must see link drops and retransmits
	}{{"kernel-fabric-retry-flap", fabricPoolSpec(), true}, {"lauberhorn-direct", lauberhornPoolSpec(), false}} {
		t.Run(tc.name, func(t *testing.T) {
			u := Build(tc.spec)
			u.StartClients()
			u.RunUntil(20 * sim.Millisecond)
			gets0, hits0 := poolTotals(t, u)
			u.RunUntil(50 * sim.Millisecond)
			gets1, hits1 := poolTotals(t, u)
			gets, misses := gets1-gets0, (gets1-hits1)-(gets0-hits0)
			t.Logf("warm-up gets=%d misses=%d; window gets=%d misses=%d; drops=%d retransmits=%d",
				gets0, gets0-hits0, gets, misses, u.DroppedFrames(), u.TransportStats().Retransmits)
			if gets == 0 {
				t.Fatal("no pooled frames in the measured window")
			}
			if tc.faulty && (u.DroppedFrames() == 0 || u.TransportStats().Retransmits == 0) {
				t.Fatal("the flap caused no drops or retransmits")
			}
			if misses*100 > gets {
				t.Errorf("window pool misses %d > 1%% of %d gets", misses, gets)
			}
		})
	}
}
