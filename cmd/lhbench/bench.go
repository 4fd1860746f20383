package main

// BENCH_sim.json: the machine-readable perf artifact behind the repo's
// performance trajectory. Every run of `lhbench -bench <path>` writes one
// snapshot — per-experiment simulator throughput plus a self-contained
// event-queue microbenchmark — so regressions show up as a diffable
// number, not an impression. The schema is documented in README.md and
// versioned through the "schema" field.

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"lauberhorn/internal/experiments"
	"lauberhorn/internal/sim"
)

// benchSchema names the current BENCH_sim.json layout. v5 drops the
// sharding section and the shards field, which v3 added, along with
// sharded execution. v4 added the fluid section: event counts for the
// long-transfer background scenario (experiments.FluidScenario) run
// per-packet and with fluid-flow aggregation, whose >=5x event cut
// TestFluidAggregationReducesEvents pins. v2 added the -benchreps sample
// count and restricted the totals to metered experiments
// (events_fired > 0): analytic experiments report no simulator events
// and would otherwise dilute the events/sec aggregate the ratchet gates
// on.
const benchSchema = "lauberhorn-bench/v5"

// benchFile is the top-level BENCH_sim.json shape.
type benchFile struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// Workers is the -parallel width the experiment section ran with.
	Workers int `json:"workers"`
	// Reps is the -benchreps sample count; per-experiment wall times are
	// the minimum over Reps runs.
	Reps        int               `json:"reps"`
	Queue       benchQueue        `json:"queue"`
	Experiments []benchExperiment `json:"experiments"`
	Totals      benchTotals       `json:"totals"`
	// Fluid records the representation-switch scenario: the same
	// long-transfer background workload run per-packet and with >=64 KiB
	// transfers as fluid flows. Both counts are deterministic (pure
	// functions of the scenario's fixed seeds), so the event cut is a
	// property of the code, not the host.
	Fluid benchFluid `json:"fluid"`
}

// benchFluid is the fluid-aggregation section: identical delivered
// bytes, and the per-packet/fluid event ratio the representation switch
// buys on the long-transfer scenario.
type benchFluid struct {
	PacketEvents uint64  `json:"packet_events"`
	FluidEvents  uint64  `json:"fluid_events"`
	EventCutX    float64 `json:"event_cut_x"`
	Bytes        int64   `json:"bytes"`
}

// benchQueue is the event-queue microbenchmark section: the same two hot
// loops as internal/sim's BenchmarkScheduleFire and BenchmarkFanOut,
// rerun inline so the artifact is reproducible from this one command.
type benchQueue struct {
	ScheduleFireNsPerEvent float64 `json:"schedule_fire_ns_per_event"`
	ScheduleFireEventsSec  float64 `json:"schedule_fire_events_per_sec"`
	FanOutEventsSec        float64 `json:"fanout_events_per_sec"`
}

// benchExperiment is one experiment's row.
type benchExperiment struct {
	ID             string  `json:"id"`
	Title          string  `json:"title"`
	WallMS         float64 `json:"wall_ms"`
	EventsFired    uint64  `json:"events_fired"`
	EventsRecycled uint64  `json:"events_recycled"`
	Sims           int     `json:"sims"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// benchTotals aggregates the experiment section. Only metered experiments
// (events_fired > 0) contribute to the wall/event/throughput aggregates;
// analytic experiments that run no simulator are listed per-experiment but
// excluded here, so the ratchet gate measures simulation work only.
type benchTotals struct {
	Experiments    int     `json:"experiments"`
	Metered        int     `json:"metered"`
	WallMS         float64 `json:"wall_ms"`
	EventsFired    uint64  `json:"events_fired"`
	EventsRecycled uint64  `json:"events_recycled"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// benchScheduleFire measures the schedule→fire steady state: one
// self-rescheduling event, the shape of every model timer.
func benchScheduleFire() (nsPerEvent, eventsPerSec float64) {
	const n = 2_000_000
	s := sim.New(1)
	left := n
	var tick func()
	tick = func() {
		left--
		if left > 0 {
			s.After(sim.Nanosecond, "tick", tick)
		}
	}
	s.After(0, "tick", tick)
	start := time.Now()
	s.Run()
	el := time.Since(start)
	return float64(el.Nanoseconds()) / n, n / el.Seconds()
}

// benchFanOut measures bursty scheduling: each fired event schedules a
// small fan-out, stressing ring-bucket growth and free-list churn.
func benchFanOut() (eventsPerSec float64) {
	const rounds = 200
	var fired uint64
	start := time.Now()
	for i := 0; i < rounds; i++ {
		s := sim.New(uint64(i))
		n := 0
		var burst func()
		burst = func() {
			n++
			if n < 4096 {
				for j := 0; j < 3; j++ {
					s.After(sim.Time(1+j)*sim.Nanosecond, "burst", burst)
				}
			}
		}
		s.After(0, "burst", burst)
		s.RunUntil(200 * sim.Nanosecond)
		fired += s.Fired()
	}
	return float64(fired) / time.Since(start).Seconds()
}

// benchFluidSection runs the long-transfer scenario per-packet and
// fluid and records the event cut. One rep suffices: both runs are
// deterministic, so the numbers carry no host noise. Delivered-byte
// equality between the two modes is pinned by
// TestFluidAggregationReducesEvents, not re-checked here.
func benchFluidSection() benchFluid {
	pktEvents, _ := experiments.FluidScenario(false)
	fluEvents, fluBytes := experiments.FluidScenario(true)
	out := benchFluid{PacketEvents: pktEvents, FluidEvents: fluEvents, Bytes: fluBytes}
	if fluEvents > 0 {
		out.EventCutX = float64(pktEvents) / float64(fluEvents)
	}
	return out
}

// buildBench measures the queue microbenchmarks and renders results into
// the BENCH_sim.json shape. Experiments that fired no simulator events
// (the analytic tables) are listed but kept out of the totals: they would
// add wall time with zero events and drag the aggregate events/sec the
// ratchet gates on toward noise.
func buildBench(workers, reps int, results []experiments.Result) benchFile {
	f := benchFile{
		Schema:  benchSchema,
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Workers: workers,
		Reps:    reps,
	}
	f.Fluid = benchFluidSection()
	// The queue microbenchmarks follow the same min-of-N (best-of-N for
	// throughput) discipline as the experiment wall times: a single sample
	// on a shared host can swing ±20% and turn the ratchet into a coin
	// flip.
	for i := 0; i < reps; i++ {
		ns, eps := benchScheduleFire()
		if i == 0 || ns < f.Queue.ScheduleFireNsPerEvent {
			f.Queue.ScheduleFireNsPerEvent, f.Queue.ScheduleFireEventsSec = ns, eps
		}
		if fo := benchFanOut(); fo > f.Queue.FanOutEventsSec {
			f.Queue.FanOutEventsSec = fo
		}
	}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		wallS := r.Wall.Seconds()
		e := benchExperiment{
			ID:             r.Experiment.ID,
			Title:          r.Experiment.Title,
			WallMS:         float64(r.Wall.Microseconds()) / 1000,
			EventsFired:    r.Events,
			EventsRecycled: r.Recycled,
			Sims:           r.Sims,
		}
		if wallS > 0 {
			e.EventsPerSec = float64(r.Events) / wallS
		}
		f.Experiments = append(f.Experiments, e)
		f.Totals.Experiments++
		if r.Events == 0 {
			continue
		}
		f.Totals.Metered++
		f.Totals.WallMS += e.WallMS
		f.Totals.EventsFired += r.Events
		f.Totals.EventsRecycled += r.Recycled
	}
	if f.Totals.WallMS > 0 {
		f.Totals.EventsPerSec = float64(f.Totals.EventsFired) / (f.Totals.WallMS / 1000)
	}
	return f
}

// writeBench serializes a snapshot to path.
func writeBench(path string, f benchFile) error {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
