package main

import (
	"strings"
	"testing"
	"time"

	"lauberhorn/internal/experiments"
)

func ratchetBase() benchFile {
	f := benchFile{Schema: benchSchema}
	f.Totals.EventsPerSec = 1_000_000
	f.Queue.ScheduleFireEventsSec = 2_000_000
	f.Queue.FanOutEventsSec = 3_000_000
	f.Experiments = []benchExperiment{
		{ID: "e1", EventsFired: 1000, EventsPerSec: 500_000},
		{ID: "e2", EventsFired: 1000, EventsPerSec: 400_000},
	}
	return f
}

func TestCompareBenchClean(t *testing.T) {
	base := ratchetBase()
	fresh := ratchetBase()
	// Within tolerance (and faster is always fine).
	fresh.Totals.EventsPerSec *= 0.95
	fresh.Queue.ScheduleFireEventsSec *= 1.5
	failures, notes := compareBench(base, fresh, 0.10)
	if len(failures) != 0 || len(notes) != 0 {
		t.Fatalf("clean compare produced failures=%v notes=%v", failures, notes)
	}
}

func TestCompareBenchAggregateRegression(t *testing.T) {
	base := ratchetBase()
	fresh := ratchetBase()
	fresh.Totals.EventsPerSec *= 0.80
	fresh.Queue.FanOutEventsSec *= 0.50
	failures, _ := compareBench(base, fresh, 0.10)
	if len(failures) != 2 {
		t.Fatalf("want 2 failures, got %v", failures)
	}
	if !strings.Contains(failures[0], "totals.events_per_sec regressed 20.0%") {
		t.Errorf("unexpected totals failure text: %s", failures[0])
	}
	if !strings.Contains(failures[1], "queue.fanout_events_per_sec regressed 50.0%") {
		t.Errorf("unexpected queue failure text: %s", failures[1])
	}
}

func TestCompareBenchPerExperimentIsInformational(t *testing.T) {
	base := ratchetBase()
	fresh := ratchetBase()
	fresh.Experiments[1].EventsPerSec *= 0.5
	failures, notes := compareBench(base, fresh, 0.10)
	if len(failures) != 0 {
		t.Fatalf("per-experiment drift must not gate, got failures %v", failures)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "e2") {
		t.Fatalf("want one informational note about e2, got %v", notes)
	}
}

// TestCompareBenchExcludesUnmeteredExperiments pins the zero-event
// exclusion: analytic experiments report events_fired == 0 and an
// events/sec of zero, and must produce no per-experiment drift notes no
// matter how their wall time moves — they measure no simulation work.
func TestCompareBenchExcludesUnmeteredExperiments(t *testing.T) {
	base := ratchetBase()
	base.Experiments = append(base.Experiments,
		benchExperiment{ID: "e5", WallMS: 10, EventsFired: 0, EventsPerSec: 1_000})
	fresh := ratchetBase()
	// The analytic experiment "regresses" wildly; it must stay silent.
	fresh.Experiments = append(fresh.Experiments,
		benchExperiment{ID: "e5", WallMS: 1000, EventsFired: 0, EventsPerSec: 1})
	failures, notes := compareBench(base, fresh, 0.10)
	if len(failures) != 0 || len(notes) != 0 {
		t.Fatalf("unmetered experiments must be excluded, got failures=%v notes=%v", failures, notes)
	}
	// A metered experiment with the same drift still produces its note.
	fresh.Experiments[1].EventsPerSec *= 0.5
	if _, notes := compareBench(base, fresh, 0.10); len(notes) != 1 || !strings.Contains(notes[0], "e2") {
		t.Fatalf("metered drift must still note, got %v", notes)
	}
}

// TestBuildBenchExcludesUnmeteredTotals pins the totals side of the
// exclusion: zero-event experiments are listed per-experiment but do not
// contribute wall time or events to the aggregate the ratchet gates on.
func TestBuildBenchExcludesUnmeteredTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy") // buildBench reruns the queue microbenchmarks
	}
	results := []experiments.Result{
		{Experiment: experiments.Experiment{ID: "e1", Title: "metered"},
			Wall: 100 * time.Millisecond, Events: 1000, Recycled: 10, Sims: 1},
		{Experiment: experiments.Experiment{ID: "e5", Title: "analytic"},
			Wall: 900 * time.Millisecond},
	}
	f := buildBench(1, 2, results)
	if f.Reps != 2 {
		t.Errorf("reps = %d, want 2", f.Reps)
	}
	if len(f.Experiments) != 2 {
		t.Fatalf("all experiments must stay listed, got %d rows", len(f.Experiments))
	}
	if f.Totals.Experiments != 2 || f.Totals.Metered != 1 {
		t.Fatalf("totals counted wrong: %+v", f.Totals)
	}
	if f.Totals.WallMS != 100 || f.Totals.EventsFired != 1000 {
		t.Fatalf("unmetered wall time leaked into totals: %+v", f.Totals)
	}
	if want := 1000 / 0.1; f.Totals.EventsPerSec != want {
		t.Fatalf("aggregate events/sec = %f, want %f (metered work only)", f.Totals.EventsPerSec, want)
	}
}

func TestCompareBenchMissingBaselineEntries(t *testing.T) {
	base := ratchetBase()
	base.Totals.EventsPerSec = 0 // e.g. hand-edited baseline
	fresh := ratchetBase()
	fresh.Totals.EventsPerSec = 1
	fresh.Experiments = append(fresh.Experiments, benchExperiment{ID: "e9", EventsPerSec: 1})
	failures, notes := compareBench(base, fresh, 0.10)
	if len(failures) != 0 || len(notes) != 0 {
		t.Fatalf("zero/missing baseline entries must be skipped, got failures=%v notes=%v", failures, notes)
	}
}

// TestRatchetLoadsCommittedBaseline: CI ratchets a fresh snapshot
// against the committed BENCH_sim.json, so that file must carry the
// current schema and list only registered experiments.
func TestRatchetLoadsCommittedBaseline(t *testing.T) {
	f, err := loadBench("../../BENCH_sim.json")
	if err != nil {
		t.Fatalf("committed baseline rejected: %v", err)
	}
	if len(f.Experiments) == 0 || f.Totals.EventsPerSec <= 0 {
		t.Fatalf("committed baseline is empty: %d experiments, %v events/sec",
			len(f.Experiments), f.Totals.EventsPerSec)
	}
	registered := make(map[string]bool)
	for _, e := range experiments.All() {
		registered[e.ID] = true
	}
	for _, e := range f.Experiments {
		if !registered[e.ID] {
			t.Errorf("committed baseline lists unregistered experiment %q", e.ID)
		}
	}
}
