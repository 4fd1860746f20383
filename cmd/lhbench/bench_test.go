package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lauberhorn/internal/experiments"
)

// TestWriteBench runs one light experiment through the runner and checks
// the BENCH_sim.json artifact: schema tag, queue microbenchmark fields,
// per-experiment rows with fired/recycled counters, and totals.
func TestWriteBench(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	exps, err := experiments.Select("e1")
	if err != nil {
		t.Fatal(err)
	}
	results := (&experiments.Runner{Workers: 1}).Run(exps)
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := writeBench(path, buildBench(1, 1, results)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	// Round-trip through the ratchet loader: a fresh artifact is a valid
	// baseline and never regresses against itself.
	base, err := loadBench(path)
	if err != nil {
		t.Fatalf("fresh artifact rejected as ratchet baseline: %v", err)
	}
	if failures, _ := compareBench(base, f, 0.10); len(failures) != 0 {
		t.Errorf("snapshot regresses against itself: %v", failures)
	}
	if f.Schema != benchSchema {
		t.Errorf("schema = %q, want %q", f.Schema, benchSchema)
	}
	if f.Queue.ScheduleFireNsPerEvent <= 0 || f.Queue.ScheduleFireEventsSec <= 0 ||
		f.Queue.FanOutEventsSec <= 0 {
		t.Errorf("queue microbenchmarks not populated: %+v", f.Queue)
	}
	if len(f.Experiments) != 1 || f.Experiments[0].ID != "e1" {
		t.Fatalf("experiments section = %+v, want one e1 row", f.Experiments)
	}
	e := f.Experiments[0]
	if e.EventsFired == 0 || e.Sims == 0 || e.EventsPerSec <= 0 {
		t.Errorf("e1 row missing meter data: %+v", e)
	}
	if e.EventsRecycled == 0 {
		t.Errorf("e1 recycled no events; the free list should be active on the steady state")
	}
	if f.Totals.Experiments != 1 || f.Totals.EventsFired != e.EventsFired {
		t.Errorf("totals inconsistent with rows: %+v", f.Totals)
	}
}
