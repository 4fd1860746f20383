package cluster

import (
	"fmt"
	"strings"
	"testing"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/workload"
)

// propScenarios is how many random universes the property test sweeps;
// -short trims it to a smoke sample. Each scenario is deliberately tiny
// (a few machines, a ~1 ms window) so a thousand of them stay inside the
// tier-1 budget.
const (
	propScenarios      = 1000
	propScenariosShort = 100
)

// propSpec draws one random spine-leaf scenario: fabric shape (two- or
// three-tier), machine mix across all three stacks, body sizes, rates,
// service times, and an optional fault schedule. Everything is a pure
// function of the RNG stream, so a failing scenario index reproduces
// exactly.
func propSpec(rng *sim.RNG) Spec {
	sp := Spec{
		Seed: rng.Uint64() | 1,
		Fabric: FabricSpec{
			Spines:    1 + rng.Intn(3),
			LeafPorts: 2 + rng.Intn(3),
		},
	}
	if rng.Intn(10) < 3 {
		sp.Fabric.Cores = 1 + rng.Intn(2)
		sp.Fabric.PodLeaves = 1 + rng.Intn(2)
	}
	stacks := []Stack{Lauberhorn, Bypass, Kernel}
	hosts := 1 + rng.Intn(4)
	clients := 1 + rng.Intn(4)
	for i := 0; i < hosts; i++ {
		sp.Hosts = append(sp.Hosts, HostSpec{
			Name:  fmt.Sprint("h", i),
			Stack: stacks[rng.Intn(len(stacks))],
			Cores: 1 + rng.Intn(2),
			Services: []ServiceSpec{{
				ID:   uint32(i*10 + 1),
				Port: 9000 + uint16(i),
				Time: sim.Time(200+rng.Intn(800)) * sim.Nanosecond,
			}},
		})
	}
	for i := 0; i < clients; i++ {
		target := rng.Intn(hosts)
		sp.Clients = append(sp.Clients, ClientSpec{
			Name:     fmt.Sprint("c", i),
			Size:     workload.FixedSize{N: 16 + rng.Intn(497)},
			Arrivals: propArrivals(rng),
			Targets:  []TargetSpec{{Host: fmt.Sprint("h", target), Service: uint32(target*10 + 1)}},
		})
	}
	// A third of the scenarios carry a fault: an uplink flap on a random
	// live leaf/spine pair, or an access-link cut on a random machine.
	if rng.Intn(3) == 0 {
		leaves := (clients + hosts + sp.Fabric.LeafPorts - 1) / sp.Fabric.LeafPorts
		at := sim.Time(300+rng.Intn(400)) * sim.Microsecond
		if rng.Intn(2) == 0 {
			sp.Faults = []FaultSpec{{
				Kind: FaultLinkFlap,
				Leaf: rng.Intn(leaves), Spine: rng.Intn(sp.Fabric.Spines),
				At:      at,
				DownFor: sim.Time(50+rng.Intn(150)) * sim.Microsecond,
				UpFor:   sim.Time(50+rng.Intn(150)) * sim.Microsecond,
				Cycles:  1 + rng.Intn(2),
			}}
		} else {
			name := fmt.Sprint("h", rng.Intn(hosts))
			if rng.Intn(2) == 0 {
				name = fmt.Sprint("c", rng.Intn(clients))
			}
			sp.Faults = []FaultSpec{{
				Kind: FaultLinkDown, Machine: name,
				At: at, Duration: sim.Time(100+rng.Intn(300)) * sim.Microsecond,
			}}
		}
	}
	return sp
}

// propArrivals draws one arrival process: the closed-form RatePerSec
// plus the three open-loop processes (Poisson, bursty MMPP, piecewise
// Diurnal). MMPP and Diurnal carry modulating state, which is why the
// property test rebuilds the spec from its seed for every run instead
// of reusing one Spec value.
func propArrivals(rng *sim.RNG) workload.ArrivalDist {
	mean := sim.Time(25+rng.Intn(75)) * sim.Microsecond // 13k-40k rps
	switch rng.Intn(4) {
	case 0:
		return workload.RatePerSec(float64(sim.Second / mean))
	case 1:
		return workload.Poisson{Mean: mean}
	case 2:
		return &workload.MMPP{
			CalmMean: 2 * mean, HotMean: mean / 2,
			CalmPeriod: sim.Time(100+rng.Intn(200)) * sim.Microsecond,
			HotPeriod:  sim.Time(50+rng.Intn(100)) * sim.Microsecond,
		}
	default:
		return &workload.Diurnal{Mean: mean, Phases: []workload.RatePhase{
			{Dur: sim.Time(200+rng.Intn(300)) * sim.Microsecond, Mult: 0.5},
			{Dur: sim.Time(200+rng.Intn(300)) * sim.Microsecond, Mult: 2},
		}}
	}
}

// propFingerprint runs one spec over a short window and reduces it to
// the order-sensitive counters: per-host served, per-client
// sent/latency percentiles (which depend on every individual RTT, not
// just aggregates), drop and fired totals. active reports whether any
// request completed a round trip.
func propFingerprint(sp Spec) (fp string, active bool) {
	u := Build(sp)
	u.RunMeasured(200*sim.Microsecond, sim.Millisecond)
	for _, c := range u.Clients {
		if c.Gen.Latency.Count() > 0 {
			active = true
		}
	}
	var b strings.Builder
	for _, h := range u.Hosts {
		fmt.Fprintf(&b, "%s served=%d\n", h.Spec.Name, h.MeasuredServed())
	}
	for _, c := range u.Clients {
		fmt.Fprintf(&b, "%s sent=%d n=%d p50=%d p99=%d\n", c.Spec.Name,
			c.MeasuredSent(), c.Gen.Latency.Count(),
			c.Gen.Latency.Percentile(0.5), c.Gen.Latency.Percentile(0.99))
	}
	fmt.Fprintf(&b, "dropped=%d fired=%d\n", u.DroppedFrames(), u.EventsFired())
	return b.String(), active
}

// TestRandomScenariosDeterministic is the randomized half of the
// determinism contract: across ~1k generated spine-leaf scenarios —
// two- and three-tier shapes, mixed stacks, random rates/sizes/faults —
// building and running each scenario twice from its seed produces the
// same fingerprint.
func TestRandomScenariosDeterministic(t *testing.T) {
	n := propScenarios
	if testing.Short() {
		n = propScenariosShort
	}
	rng := sim.NewRNG(0x5ead_beef)
	active := 0
	for i := 0; i < n; i++ {
		// MMPP/Diurnal arrivals carry state, so each run rebuilds the
		// spec from the scenario seed rather than reusing one Spec value.
		scenarioSeed := rng.Uint64()
		first, completed := propFingerprint(propSpec(sim.NewRNG(scenarioSeed)))
		if again, _ := propFingerprint(propSpec(sim.NewRNG(scenarioSeed))); again != first {
			t.Fatalf("scenario %d (seed=%#x) diverges between two runs:\nfirst:\n%s\nsecond:\n%s",
				i, scenarioSeed, first, again)
		}
		if completed {
			active++
		}
	}
	// Guard against a vacuous sweep: most scenarios must complete RPCs.
	if active < n*3/4 {
		t.Fatalf("only %d/%d scenarios completed round trips", active, n)
	}
}
