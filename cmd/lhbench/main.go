// Command lhbench runs the paper-reproduction experiments and prints
// their tables.
//
// Usage:
//
//	lhbench -list                  # show available experiments
//	lhbench -run e1,e5             # run selected experiments
//	lhbench -run all               # run everything (default)
//	lhbench -run all -parallel 8   # run up to 8 experiments concurrently
//	lhbench -run e3 -json          # machine-readable results
//	lhbench -run e15 -transport credit
//	                               # rerun a cluster experiment with a
//	                               # transport scheme on every endpoint
//
// Experiments run on a bounded worker pool (-parallel, default
// GOMAXPROCS) with one simulator universe per experiment, so results are
// byte-identical to a serial run: tables depend only on the seeds.
// Tables go to stdout; progress and the summary footer go to stderr, so
// stdout can be diffed across runs or piped to tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"lauberhorn/internal/experiments"
	"lauberhorn/internal/stackdrv"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/transport"
)

// jsonResult is the -json shape for one experiment.
type jsonResult struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Source string         `json:"source"`
	WallMS float64        `json:"wall_ms"`
	Events uint64         `json:"events_fired"`
	Sims   int            `json:"sims"`
	Error  string         `json:"error,omitempty"`
	Tables []*stats.Table `json:"tables"`
}

// jsonResults shapes runner results for -json output.
func jsonResults(results []experiments.Result) []jsonResult {
	out := make([]jsonResult, len(results))
	for i, r := range results {
		out[i] = jsonResult{
			ID:     r.Experiment.ID,
			Title:  r.Experiment.Title,
			Source: r.Experiment.Source,
			WallMS: float64(r.Wall.Microseconds()) / 1000,
			Events: r.Events,
			Sims:   r.Sims,
			Tables: r.Tables,
		}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
		}
	}
	return out
}

// listText renders the -list output: every registered experiment, then
// every registered stack driver (short name, kind, display label) — the
// registry is the source of truth, so stacks registered by new driver
// files show up without harness changes.
func listText() string {
	var b strings.Builder
	b.WriteString("available experiments:\n")
	for _, e := range experiments.All() {
		fmt.Fprintf(&b, "  %-4s %-50s (%s)\n", e.ID, e.Title, e.Source)
	}
	b.WriteString("registered stacks:\n")
	for _, ent := range stackdrv.All() {
		fmt.Fprintf(&b, "  %-13s kind=%d  %s\n", ent.Name, int(ent.Kind), ent.Label)
	}
	b.WriteString("registered transports (-transport):\n")
	for _, ent := range transport.All() {
		fmt.Fprintf(&b, "  %-13s kind=%d  %s\n", ent.Name, int(ent.Kind), ent.Label)
	}
	return b.String()
}

// transportNames lists the registered transport schemes' short names.
func transportNames() string {
	var names []string
	for _, e := range transport.All() {
		names = append(names, e.Name)
	}
	return strings.Join(names, " | ")
}

func main() { os.Exit(run()) }

// run is the whole command; it returns the exit status instead of
// calling os.Exit itself, so deferred cleanup (stopping and closing the
// CPU profile) runs on the failure paths too.
func run() int {
	list := flag.Bool("list", false, "list experiments and stack drivers, then exit")
	runIDs := flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"max experiments running concurrently (1 = serial)")
	jsonOut := flag.Bool("json", false, "emit results as JSON on stdout")
	transportName := flag.String("transport", "raw",
		"transport scheme for every cluster experiment: "+transportNames()+" (e21/e22 sweep the full matrix regardless)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this path")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the runs) to this path")
	flag.Parse()

	// The simulator's live heap is small (per-universe state) while its
	// allocation rate is high (frames whose ownership transfers through
	// the fabric), so the default GOGC=100 spends ~25% of wall time in
	// collection cycles that reclaim almost nothing live. Relax the
	// target unless the user set GOGC explicitly.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}

	if *list {
		fmt.Print(listText())
		return 0
	}

	tr, ok := transport.ByName(strings.ToLower(*transportName))
	if !ok {
		fmt.Fprintf(os.Stderr, "lhbench: unknown transport %q (registered: %s)\n",
			*transportName, transportNames())
		return 1
	}
	experiments.SetTransport(tr.Kind)

	selected, err := experiments.Select(*runIDs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lhbench: %v (use -list to see experiment IDs)\n", err)
		return 1
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "lhbench: -parallel must be >= 1, got %d\n", *parallel)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: starting CPU profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	runner := &experiments.Runner{Workers: *parallel}
	start := time.Now()

	var results []experiments.Result
	if *jsonOut {
		results = runner.Run(selected)
		out := jsonResults(results)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: encoding results: %v\n", err)
			return 1
		}
	} else {
		results = runner.RunStream(selected, func(r experiments.Result) {
			fmt.Printf("### %s — %s [%s]\n\n", strings.ToUpper(r.Experiment.ID),
				r.Experiment.Title, r.Experiment.Source)
			if r.Err != nil {
				// Stderr, not stdout: stdout carries only deterministic
				// tables so it stays diffable across runs.
				fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", r.Experiment.ID, r.Err)
				return
			}
			for _, tb := range r.Tables {
				fmt.Println(tb.String())
			}
			fmt.Fprintf(os.Stderr, "(%s: %d events across %d sims in %v)\n",
				r.Experiment.ID, r.Events, r.Sims, r.Wall.Round(time.Millisecond))
		})
	}

	elapsed := time.Since(start)
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: -memprofile: %v\n", err)
			return 1
		}
		runtime.GC()
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: writing allocation profile: %v\n", err)
			return 1
		}
	}
	sum := experiments.Summarize(results)
	fmt.Fprintf(os.Stderr,
		"\nlhbench: %d experiments, %d tables, %d simulator events in %v (workers=%d, serial cost %v, speedup %.2fx)\n",
		sum.Experiments, sum.Tables, sum.Events, elapsed.Round(time.Millisecond),
		*parallel, sum.SerialWall.Round(time.Millisecond),
		float64(sum.SerialWall)/float64(elapsed))
	if sum.Failures > 0 {
		fmt.Fprintf(os.Stderr, "lhbench: %d experiment(s) FAILED\n", sum.Failures)
		return 1
	}
	return 0
}
