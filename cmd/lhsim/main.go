// Command lhsim runs a single configurable RPC-serving scenario on one of
// the registered stacks and prints latency and core-state summaries.
//
// Usage:
//
//	lhsim -stack lauberhorn -cores 4 -services 16 -rate 100000 -dur 100ms
//	lhsim -stack bypass -services 8 -zipf 1.1
//	lhsim -stack kernel -size 512
//	lhsim -stack hybrid -size 8192
//
// With -hosts N (N > 1) the scenario becomes a spine-leaf cluster: N
// single-service servers and N clients spread across leaves (4 machines
// per leaf, -spines spine switches), routed by deterministic ECMP.
// -flap additionally flaps the uplink leaf0:spine0 during the window,
// reproducing e19's fault shape interactively:
//
//	lhsim -stack kernel -hosts 8 -spines 4 -rate 20000
//	lhsim -stack lauberhorn -hosts 4 -size 4096 -flap
//
// -transport interposes a transport scheme (retry, ecn, or credit; see
// internal/transport) on every endpoint of the -hosts cluster:
//
//	lhsim -stack lauberhorn -hosts 8 -size 4096 -flap -transport retry
//
// Since the stack-driver registry, "lauberhorn" is the pure cache-line
// data path; bodies at or above 4 KiB take the §6 DMA fallback only on
// the "hybrid" stack (previously the fallback was always armed).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/cpu"
	"lauberhorn/internal/experiments"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stackdrv"
	"lauberhorn/internal/transport"
	"lauberhorn/internal/workload"
)

// transportNames lists the registered transport schemes' short names.
func transportNames() []string {
	var out []string
	for _, e := range transport.All() {
		out = append(out, e.Name)
	}
	return out
}

// stackNames lists the registered drivers' short names, lower-cased for
// CLI use.
func stackNames() []string {
	var out []string
	for _, e := range stackdrv.All() {
		out = append(out, strings.ToLower(e.Name))
	}
	return out
}

// resolveStack maps a CLI stack name to a registered driver kind:
// registry short names case-insensitively, plus the historical "enzian"
// alias.
func resolveStack(name string) (cluster.Stack, bool) {
	if strings.EqualFold(name, "enzian") {
		name = "KernelEnzian"
	}
	for _, e := range stackdrv.All() {
		if strings.EqualFold(e.Name, name) {
			return e.Kind, true
		}
	}
	return 0, false
}

// arrivalsMaker maps an -arrivals name to a factory for fresh
// arrival-process instances at the given mean rate. A factory, because
// MMPP and Diurnal carry modulating state and must not be shared
// between clients. The bursty processes keep the requested mean: both
// alternate 1/3x and 5/3x phases of equal expected length.
func arrivalsMaker(name string, rate float64) (func() workload.ArrivalDist, bool) {
	gap := func(r float64) sim.Time { return sim.Time(float64(sim.Second) / r) }
	switch name {
	case "poisson":
		return func() workload.ArrivalDist { return workload.RatePerSec(rate) }, true
	case "mmpp":
		return func() workload.ArrivalDist {
			return &workload.MMPP{
				CalmMean: gap(rate / 3), HotMean: gap(rate * 5 / 3),
				CalmPeriod: 200 * sim.Microsecond, HotPeriod: 200 * sim.Microsecond,
			}
		}, true
	case "diurnal":
		return func() workload.ArrivalDist {
			return &workload.Diurnal{Mean: gap(rate), Phases: []workload.RatePhase{
				{Dur: sim.Millisecond, Mult: 1.0 / 3},
				{Dur: sim.Millisecond, Mult: 5.0 / 3},
			}}
		}, true
	}
	return nil, false
}

func main() {
	stack := flag.String("stack", "lauberhorn",
		"stack: "+strings.Join(stackNames(), " | ")+" (or enzian)")
	cores := flag.Int("cores", 4, "server cores")
	services := flag.Int("services", 1, "number of RPC services")
	rate := flag.Float64("rate", 100_000, "offered load, requests/second")
	dur := flag.Duration("dur", 100*time.Millisecond, "measurement window (simulated)")
	warm := flag.Duration("warm", 20*time.Millisecond, "warm-up window (simulated)")
	size := flag.Int("size", 40, "request body bytes (0 = cloud-RPC mixture)")
	service := flag.Duration("service", time.Microsecond, "handler service time")
	zipf := flag.Float64("zipf", 0, "Zipf skew across services (0 = uniform)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	telemetry := flag.Bool("telemetry", false, "print the Lauberhorn NIC's per-service telemetry")
	churn := flag.Duration("churn", 0, "rotate the hot service set at this period (0 = stable)")
	hosts := flag.Int("hosts", 1, "server count; > 1 runs a spine-leaf cluster with as many clients")
	spines := flag.Int("spines", 2, "spine switches of the -hosts cluster fabric")
	arrivals := flag.String("arrivals", "poisson",
		"arrival process at the -rate mean: poisson | mmpp (burst states at 1/3x and 5/3x) | diurnal (1ms rate curve at 1/3x and 5/3x)")
	flap := flag.Bool("flap", false, "flap uplink leaf0:spine0 during the -hosts cluster window")
	transportName := flag.String("transport", "raw",
		"transport scheme on every endpoint of the -hosts cluster: "+strings.Join(transportNames(), " | "))
	flag.Parse()

	var sz workload.SizeDist = workload.FixedSize{N: *size}
	if *size == 0 {
		sz = workload.CloudRPC()
	}
	var pop *workload.Zipf
	if *zipf > 0 {
		pop = workload.NewZipf(*services, *zipf)
	}
	mkArr, arrOK := arrivalsMaker(*arrivals, *rate)
	if !arrOK {
		fmt.Fprintf(os.Stderr, "lhsim: unknown arrival process %q (known: poisson, mmpp, diurnal)\n", *arrivals)
		os.Exit(1)
	}
	st := sim.Time(service.Nanoseconds()) * sim.Nanosecond

	kind, ok := resolveStack(*stack)
	if !ok {
		fmt.Fprintf(os.Stderr, "lhsim: unknown stack %q (registered: %s)\n",
			*stack, strings.Join(stackNames(), ", "))
		os.Exit(1)
	}
	tr, trOK := transport.ByName(strings.ToLower(*transportName))
	if !trOK {
		fmt.Fprintf(os.Stderr, "lhsim: unknown transport %q (registered: %s)\n",
			*transportName, strings.Join(transportNames(), ", "))
		os.Exit(1)
	}
	if tr.Kind != transport.Raw && *hosts <= 1 {
		fmt.Fprintln(os.Stderr, "lhsim: -transport needs a -hosts cluster (schemes interpose on cluster endpoints)")
		os.Exit(1)
	}
	if *hosts > 1 {
		runCluster(clusterOpts{
			kind: kind, transport: tr.Kind,
			hosts: *hosts, spines: *spines, cores: *cores,
			services: *services, seed: *seed, rate: *rate, serviceTime: st,
			arrivals: mkArr,
			size:     sz, zipf: *zipf, flap: *flap, telemetry: *telemetry,
			churn: sim.Time(churn.Nanoseconds()) * sim.Nanosecond,
			warm:  sim.Time(warm.Nanoseconds()) * sim.Nanosecond,
			dur:   sim.Time(dur.Nanoseconds()) * sim.Nanosecond,
		})
		return
	}
	rig := experiments.StackRig(kind, *seed, *cores, *services, st, sz, mkArr(), pop)

	if *churn > 0 {
		rig.Gen.SetChurn(sim.Time(churn.Nanoseconds()) * sim.Nanosecond)
	}
	simWarm := sim.Time(warm.Nanoseconds()) * sim.Nanosecond
	simDur := sim.Time(dur.Nanoseconds()) * sim.Nanosecond
	wallStart := time.Now()
	rig.RunMeasured(simWarm, simDur)
	wall := time.Since(wallStart)

	fmt.Printf("stack: %s   cores: %d   services: %d   rate: %.0f rps   window: %v\n",
		rig.Label, *cores, *services, *rate, dur)
	fmt.Printf("sent: %d   served: %d\n", rig.MeasuredSent(), rig.MeasuredServed())
	fmt.Printf("simulator: %d events fired (%d cancelled, %d allocs recycled) in %v — %.1fM events/sec\n",
		rig.S.Fired(), rig.S.Cancelled(), rig.S.Recycled(), wall.Round(time.Millisecond),
		float64(rig.S.Fired())/wall.Seconds()/1e6)
	fmt.Printf("latency: %s\n", rig.Gen.Latency.Summary(float64(sim.Microsecond), "us"))
	fmt.Printf("cycles/request: %.0f   energy: %.3f J\n", rig.CyclesPerRequest(), rig.Energy())
	fmt.Println("per-core residency:")
	for _, c := range rig.Cores {
		fmt.Printf("  core%d: user=%v kernel=%v spin=%v stall=%v idle=%v\n",
			c.ID(), c.Residency(cpu.User), c.Residency(cpu.Kernel),
			c.Residency(cpu.Spin), c.Residency(cpu.Stall), c.Residency(cpu.Idle))
	}
	if rig.LH != nil {
		s := rig.LH.NIC.Stats()
		fmt.Printf("lauberhorn NIC: fast=%d kernel=%d softnotify=%d tryagain=%d retire=%d\n",
			s.FastDispatch, s.KernDispatch, s.SoftNotify, s.TryAgains, s.Retires)
		if *telemetry {
			fmt.Print(rig.LH.NIC.TelemetryReport())
		}
	} else if *telemetry {
		fmt.Println("(-telemetry is only available on the lauberhorn stack)")
	}
}
