package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/experiments"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/transport"
	"lauberhorn/internal/workload"
)

// Workload names, as BENCHMARK.json lists them.
const (
	rpcSmall = "rpc-small"
	fabric4K = "fabric-4k"
	suite    = "suite"
)

// workloadNames lists every workload the harness knows.
var workloadNames = []string{rpcSmall, fabric4K, suite}

// window is the simulated warm-up and measurement window of one
// single-universe run (RunMeasured adds its own 20 ms drain).
type window struct{ warm, measure sim.Time }

// rpcSmallSpec is one Lauberhorn host (4 cores, 16 services with 1 us
// handlers) behind a Direct link to one client that sends 64 B bodies,
// open-loop Poisson at 1 M rps with Zipf(1.1) service popularity. That
// is ~60% of the host's ~1.65 M rps saturation, so the NIC mixes fast,
// kernel and soft-notify dispatch. The smallest message makes per-event
// cost (sim queue, MESI directory, core NIC) dominate; there is no
// switch, transport or DMA.
func rpcSmallSpec(seed uint64) (cluster.Spec, window) {
	const services = 16
	var svcs []cluster.ServiceSpec
	for i := 0; i < services; i++ {
		svcs = append(svcs, cluster.ServiceSpec{ID: uint32(i + 1), Port: 9000 + uint16(i), Time: sim.Microsecond})
	}
	sp := cluster.Spec{
		Seed:   seed,
		Direct: true,
		Hosts:  []cluster.HostSpec{{Name: "srv", Stack: cluster.Lauberhorn, Cores: 4, Services: svcs}},
		Clients: []cluster.ClientSpec{{
			Name:       "cli",
			Size:       workload.FixedSize{N: 64},
			Arrivals:   workload.RatePerSec(1_000_000),
			Popularity: workload.NewZipf(services, 1.1),
		}},
	}
	return sp, window{10 * sim.Millisecond, 300 * sim.Millisecond}
}

// fabric4KSpec is a 2-spine leaf-spine fabric with 4 ports per leaf
// carrying 8 Kernel-stack servers (2 cores, one 1 us service each) and 8
// clients. Each client sprays 4 KiB bodies, open-loop Poisson at 20
// krps, uniformly across every server under the retry transport, while
// uplink leaf0:spine0 flaps for three cycles inside the window. Per-byte
// work (checksums and copies, descriptor-ring DMA), switching, drops and
// retransmit timers dominate; the MESI directory and core NIC do no work.
func fabric4KSpec(seed uint64) (cluster.Spec, window) {
	const machines = 8
	w := window{10 * sim.Millisecond, 150 * sim.Millisecond}
	sp := cluster.Spec{
		Seed:      seed,
		Fabric:    cluster.FabricSpec{Spines: 2, LeafPorts: 4},
		Transport: transport.Retry,
		Faults: []cluster.FaultSpec{{
			Kind: cluster.FaultLinkFlap, Leaf: 0, Spine: 0,
			At: w.warm + w.measure/6, DownFor: w.measure / 10, UpFor: w.measure / 15, Cycles: 3,
		}},
	}
	for i := 0; i < machines; i++ {
		sp.Hosts = append(sp.Hosts, cluster.HostSpec{
			Name: fmt.Sprintf("srv%d", i), Stack: cluster.Kernel, Cores: 2,
			Services: []cluster.ServiceSpec{{ID: uint32(i + 1), Port: 9000 + uint16(i), Time: sim.Microsecond}},
		})
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name:     fmt.Sprintf("cli%d", i),
			Size:     workload.FixedSize{N: 4096},
			Arrivals: workload.RatePerSec(20_000),
		})
	}
	return sp, w
}

// specFor returns the universe of a single-universe workload.
func specFor(name string, seed uint64) (cluster.Spec, window) {
	if name == rpcSmall {
		return rpcSmallSpec(seed)
	}
	return fabric4KSpec(seed)
}

// repResult is what one child process reports about one run of a
// workload. Host-time and memory fields vary between runs; Digest and
// Counters are simulated output and must not.
type repResult struct {
	WallS    float64 `json:"wall_s"`
	MaxRSSMB float64 `json:"max_rss_mb"`
	AllocMB  float64 `json:"alloc_mb"`
	Mallocs  uint64  `json:"mallocs"`
	GCCycles uint32  `json:"gc_cycles"`
	Events   uint64  `json:"events"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Digest    string   `json:"digest"`

	// Counters are the layers' own deterministic counters (single-universe
	// workloads only).
	Counters map[string]float64 `json:"counters,omitempty"`
	// Experiments holds each suite experiment's wall time and events.
	Experiments []expResult `json:"experiments,omitempty"`
	// Samples counts CPU-profile samples per layer (traced runs only).
	Samples map[string]int64 `json:"samples,omitempty"`
}

// expResult is one suite experiment's cost.
type expResult struct {
	ID     string  `json:"id"`
	WallS  float64 `json:"wall_s"`
	Events uint64  `json:"events"`
}

// profiler samples the CPU around the measured section of a traced run.
type profiler struct {
	buf bytes.Buffer
	on  bool
}

// profileHz is the sampling rate a traced run asks for, ten times
// pprof's default. Where the kernel's profiling timer is coarser the
// effective rate is lower; a traced session repeats traced runs for its
// whole budget, which still yields thousands of samples.
const profileHz = 1000

func (p *profiler) start() error {
	if !p.on {
		return nil
	}
	// Raising the rate before StartCPUProfile makes the runtime keep it
	// (StartCPUProfile's own attempt to set 100 Hz is refused with a
	// warning on stderr, which the parent discards).
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop(r *repResult) error {
	if !p.on {
		return nil
	}
	pprof.StopCPUProfile()
	samples, err := foldProfile(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("folding CPU profile: %w", err)
	}
	r.Samples = samples
	return nil
}

// memDelta reports heap allocation between two snapshots.
func memDelta(r *repResult, before, after *runtime.MemStats) {
	r.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	r.Mallocs = after.Mallocs - before.Mallocs
	r.GCCycles = after.NumGC - before.NumGC
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runUniverse builds the workload's universe once and runs its measured
// window: one operation. A panic, a generator error or a broken
// conservation law fails it; the parent also fails it when its digest
// differs from the session's first run.
func runUniverse(name string, seed uint64, prof *profiler) (r repResult, err error) {
	r.Attempted = 1
	defer func() {
		if p := recover(); p != nil {
			r.Failed = 1
			r.Problems = append(r.Problems, fmt.Sprintf("panic: %v", p))
		}
	}()
	sp, w := specFor(name, seed)
	u, err := cluster.BuildE(sp)
	if err != nil {
		return r, fmt.Errorf("building %s: %w", name, err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := prof.start(); err != nil {
		return r, err
	}
	t0 := time.Now()
	u.RunMeasured(w.warm, w.measure)
	r.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	if err := prof.stop(&r); err != nil {
		return r, err
	}
	memDelta(&r, &before, &after)
	r.MaxRSSMB = maxRSSMB()

	for _, c := range u.Clients {
		g := c.Gen
		if g.Errors != 0 {
			r.Problems = append(r.Problems, fmt.Sprintf("%s: %d generator errors", c.Spec.Name, g.Errors))
		}
		if g.Sent != g.Received+uint64(g.Outstanding()) {
			r.Problems = append(r.Problems, fmt.Sprintf("%s: sent %d != received %d + outstanding %d",
				c.Spec.Name, g.Sent, g.Received, g.Outstanding()))
		}
	}
	if len(r.Problems) > 0 {
		r.Failed = 1
	}
	r.Counters = universeCounters(u)
	r.Events = u.EventsFired()
	r.Digest = digestJSON(r.Counters)
	return r, nil
}

// universeCounters reads every layer's counters through its public
// getters after a measured run.
func universeCounters(u *cluster.Universe) map[string]float64 {
	c := map[string]float64{}
	var cancelled, gets, hits uint64
	for _, s := range u.Sims {
		cancelled += s.Cancelled()
		if p := u.FramePool(s); p != nil {
			gets += p.Gets
			hits += p.Hits
		}
	}
	c["sim.events_fired"] = float64(u.EventsFired())
	c["sim.events_cancelled"] = float64(cancelled)
	c["wire.pool_hit_ratio"] = ratio(hits, gets)

	c["fabric.drops"] = float64(u.DroppedFrames())
	c["fabric.ecn_marks"] = float64(u.ECNMarks())
	c["fabric.peak_backlog_us"] = float64(u.PeakNetBacklog()) / float64(sim.Microsecond)
	ts := u.TransportStats()
	c["transport.retransmits"] = float64(ts.Retransmits)
	c["transport.giveups"] = float64(ts.GiveUps)
	c["transport.replays"] = float64(ts.Replays)

	var fast, kern, soft, tryAgains, fills, recalls, invals, irqs, cswitches, syscalls uint64
	for _, h := range u.Hosts {
		if h.LH != nil {
			st := h.LH.NIC.Stats()
			fast += st.FastDispatch
			kern += st.KernDispatch
			soft += st.SoftNotify
			tryAgains += st.TryAgains
			ds := h.LH.NIC.Directory().Stats()
			fills += ds.Fills.Value()
			recalls += ds.Recalls.Value()
			invals += ds.Invalidations.Value()
		}
		if h.NICDMA != nil {
			irqs += h.NICDMA.Stats().IRQs
		}
		ks := h.K.Stats()
		cswitches += ks.ContextSwitches
		syscalls += ks.Syscalls
	}
	c["core.fast_dispatch_ratio"] = ratio(fast, fast+kern+soft)
	c["core.tryagains"] = float64(tryAgains)
	c["mesi.fills"] = float64(fills)
	c["mesi.recalls"] = float64(recalls)
	c["mesi.invalidations"] = float64(invals)
	c["nicdma.irqs"] = float64(irqs)
	c["kernel.context_switches"] = float64(cswitches)
	c["kernel.syscalls"] = float64(syscalls)

	var sent, received, outstanding uint64
	for _, cl := range u.Clients {
		sent += cl.Gen.Sent
		received += cl.Gen.Received
		outstanding += uint64(cl.Gen.Outstanding())
	}
	c["workload.sent"] = float64(sent)
	c["workload.completed"] = float64(received)
	c["workload.outstanding"] = float64(outstanding)
	lat := u.MergedLatency()
	p := lat.Percentiles(0.5, 0.99)
	c["workload.sim_p50_us"] = float64(p[0]) / float64(sim.Microsecond)
	c["workload.sim_p99_us"] = float64(p[1]) / float64(sim.Microsecond)

	// Window-edge accounting: inside the measured window nothing can be
	// served or completed that was not sent, so any excess is requests
	// born in warm-up and counted in the window.
	wSent := int64(u.TotalMeasuredSent())
	skew := max(int64(0), int64(u.TotalMeasuredServed())-wSent, int64(lat.Count())-wSent)
	c["cluster.window_skew"] = float64(skew)
	return c
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runSuite runs e1-e24 once through a one-worker Runner with the
// default overrides; each experiment is one operation and fails on Err.
// The digest covers the tables exactly as lhbench prints them to stdout.
func runSuite(prof *profiler) (r repResult, err error) {
	exps := experiments.All()
	experiments.SetShards(0)
	experiments.SetTransport(transport.Raw)
	runner := &experiments.Runner{Workers: 1}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := prof.start(); err != nil {
		return r, err
	}
	t0 := time.Now()
	results := runner.Run(exps)
	r.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	if err := prof.stop(&r); err != nil {
		return r, err
	}
	memDelta(&r, &before, &after)
	r.MaxRSSMB = maxRSSMB()

	var out strings.Builder
	for _, res := range results {
		r.Attempted++
		fmt.Fprintf(&out, "### %s — %s [%s]\n\n", strings.ToUpper(res.Experiment.ID),
			res.Experiment.Title, res.Experiment.Source)
		if res.Err != nil {
			r.Failed++
			r.Problems = append(r.Problems, res.Err.Error())
			continue
		}
		for _, tb := range res.Tables {
			fmt.Fprintln(&out, tb.String())
		}
		r.Events += res.Events
		r.Experiments = append(r.Experiments, expResult{ID: res.Experiment.ID, WallS: res.Wall.Seconds(), Events: res.Events})
	}
	sum := sha256.Sum256([]byte(out.String()))
	r.Digest = hex.EncodeToString(sum[:])
	return r, nil
}

// runSetup builds the workload's universe n times and reports each
// build's host seconds. Each build starts from a collected heap, as the
// one build of a fresh process does, so no collection left over from the
// previous build is charged to it.
func runSetup(name string, seed uint64, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sp, _ := specFor(name, seed)
		runtime.GC()
		t0 := time.Now()
		_, err := cluster.BuildE(sp)
		out = append(out, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
	}
	return out, nil
}

// digestJSON hashes v's JSON encoding (maps encode in sorted key order).
func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers are hashed
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
