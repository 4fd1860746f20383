package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
)

// Result is the outcome of one experiment run by a Runner.
type Result struct {
	Experiment Experiment
	Tables     []*stats.Table
	// Wall is the host wall-clock time the experiment took. It is the
	// only nondeterministic field: Tables depend solely on the seeds, so
	// serial and parallel runs produce byte-identical tables.
	Wall time.Duration
	// Events counts simulator events fired across every Sim the
	// experiment created (exact even under parallelism: each experiment
	// gets its own Meter).
	Events uint64
	// Sims counts simulators the experiment created.
	Sims int
	// Err records a recovered panic, leaving the other experiments'
	// results intact.
	Err error
}

// Runner executes experiments on a bounded worker pool, one experiment
// per goroutine. Experiments share no mutable state (each builds its own
// Sim instances, and the rig constructors hand out fresh endpoint/config
// values), so the only coordination is the work queue itself.
type Runner struct {
	// Workers bounds concurrent experiments. Zero or negative means
	// GOMAXPROCS.
	Workers int
}

// Run executes exps and returns their results in presentation order
// (results[i] corresponds to exps[i], regardless of completion order).
func (r *Runner) Run(exps []Experiment) []Result {
	return r.RunStream(exps, nil)
}

// RunStream is Run with a completion callback: emit (if non-nil) is
// invoked exactly once per experiment, in presentation order, as soon as
// the result is available — so a CLI can print e1's tables while e9 is
// still computing, without ever reordering output. emit is called from
// the calling goroutine only.
func (r *Runner) RunStream(exps []Experiment, emit func(Result)) []Result {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}

	results := make([]Result, len(exps))
	ready := make([]chan struct{}, len(exps))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = runOne(exps[i])
				close(ready[i])
			}
		}()
	}
	go func() {
		for i := range exps {
			work <- i
		}
		close(work)
	}()
	for i := range exps {
		<-ready[i]
		if emit != nil {
			emit(results[i])
		}
	}
	wg.Wait()
	return results
}

// runOne executes a single experiment with its own meter, timing it and
// converting a panic into an error result.
func runOne(e Experiment) (res Result) {
	res.Experiment = e
	m := &sim.Meter{}
	//lhlint:allow detsource Wall is the one documented nondeterministic Result field; it never feeds model behavior
	start := time.Now()
	defer func() {
		//lhlint:allow detsource Wall is the one documented nondeterministic Result field; it never feeds model behavior
		res.Wall = time.Since(start)
		res.Events = m.EventsFired()
		res.Sims = m.Sims()
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("experiment %s panicked: %v", e.ID, p)
		}
	}()
	res.Tables = e.Run(m)
	return res
}

// Summary aggregates a result set for a harness footer.
type Summary struct {
	Experiments int
	Tables      int
	Events      uint64
	Failures    int
	// SerialWall sums per-experiment wall clocks (the cost a serial run
	// would have paid); Wall is what the caller measured end to end.
	SerialWall time.Duration
}

// Summarize folds results into a Summary.
func Summarize(results []Result) Summary {
	var s Summary
	for _, r := range results {
		s.Experiments++
		s.Tables += len(r.Tables)
		s.Events += r.Events
		s.SerialWall += r.Wall
		if r.Err != nil {
			s.Failures++
		}
	}
	return s
}
