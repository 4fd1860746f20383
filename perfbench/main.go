// Command perfbench is the simulator's benchmark harness. It measures
// what a user of the simulator pays, end to end, on three workloads
// (rpc-small, fabric-4k and the e1-e24 suite), and in a separate traced
// run splits the cost across the simulator's layers. See README.md for
// why each workload exists and which layer metric should move which
// end-to-end metric.
//
// Usage, from the root of a checkout (perfbench/run.sh builds it):
//
//	perfbench --workload rpc-small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it
// records the host fingerprint and every run's raw figures.
//
// Every run of a workload happens in a fresh child process (the same
// binary, re-executed with -child), one after another, so each run's
// peak RSS and allocation are its own.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"lauberhorn/internal/experiments"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "host seconds to spend measuring")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	child := flag.String("child", "", "run one task in this process and print its JSON (used by the harness itself)")
	flag.Parse()

	if !slices.Contains(workloadNames, *workloadName) {
		fatalf("unknown workload %q (known: %s)", *workloadName, strings.Join(workloadNames, ", "))
	}
	if *child != "" {
		if err := runChild(*child, *workloadName, *seed); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive, got %v", *seconds)
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fatalf("%v (run from the root of a checkout)", err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("locating the harness binary: %v", err)
	}
	s := &session{exe: exe, workload: *workloadName, seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	var metrics map[string]float64
	var want []metricDecl
	if *trace == 0 {
		metrics, err = s.endToEnd()
		want = decl.EndToEnd
	} else {
		metrics, err = s.perLayer()
		want = decl.PerLayer
	}
	if err != nil {
		fatalf("%v", err)
	}
	out, err := s.result(metrics, want)
	if err != nil {
		fatalf("%v", err)
	}
	detail, err := json.Marshal(map[string]any{
		"fingerprint": hostFingerprint(),
		"workload":    s.workload,
		"seed":        s.seed,
		"trace":       *trace,
		"setup_s":     s.setupSamples,
		"runs":        s.runs,
		"problems":    s.problems,
	})
	if err != nil {
		fatalf("encoding run details: %v", err)
	}
	fmt.Println(string(detail))
	fmt.Println(out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// runChild runs one task in this process and prints its JSON.
func runChild(task, name string, seed uint64) error {
	var v any
	switch task {
	case "rep", "traced-rep":
		prof := &profiler{on: task == "traced-rep"}
		var r repResult
		var err error
		if name == suite {
			r, err = runSuite(prof)
		} else {
			r, err = runUniverse(name, seed, prof)
		}
		if err != nil {
			return err
		}
		v = r
	case "setup":
		samples, err := runSetup(name, seed, setupBuilds)
		if err != nil {
			return err
		}
		v = samples
	case "start":
		v = struct{}{} // nothing to do: the parent times the start-up
	case "micro":
		m, err := microMetrics()
		if err != nil {
			return err
		}
		v = m
	default:
		return fmt.Errorf("unknown child task %q", task)
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}

const (
	// setupBuilds is how many universes one setup batch builds.
	setupBuilds = 21
	// startSamples is how many fresh processes one start-up batch times.
	startSamples = 5
)

// session is one benchmark invocation: one workload, one seed.
type session struct {
	exe      string
	workload string
	seed     uint64
	budget   time.Duration

	attempted, failed int
	digest            string // the first run's simulated-output digest
	digestMismatch    bool
	problems          []string
	setupSamples      []float64
	runs              []runRecord
}

// runRecord is one run's raw figures, printed for audit.
type runRecord struct {
	Traced   bool    `json:"traced"`
	WallS    float64 `json:"wall_s"`
	MaxRSSMB float64 `json:"max_rss_mb"`
	AllocMB  float64 `json:"alloc_mb"`
	Failed   int     `json:"failed"`
}

// spawn runs one child task and decodes its JSON into v.
func (s *session) spawn(task string, v any) error {
	cmd := exec.Command(s.exe, "-child", task, "-workload", s.workload, "-seed", fmt.Sprint(s.seed))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s: %v: %s", task, err, tail(stderr.String()))
	}
	if err := json.Unmarshal(stdout.Bytes(), v); err != nil {
		return fmt.Errorf("child %s: decoding its output: %v", task, err)
	}
	return nil
}

// tail returns the last lines of a child's stderr.
func tail(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, " | ")
}

// run executes one run of the workload in a fresh process and checks it.
// A run that crashes counts every operation it held as failed.
func (s *session) run(traced bool) repResult {
	task := "rep"
	if traced {
		task = "traced-rep"
	}
	var r repResult
	if err := s.spawn(task, &r); err != nil {
		r = repResult{Problems: []string{err.Error()}}
		r.Attempted = 1
		if s.workload == suite {
			r.Attempted = len(experiments.All())
		}
		r.Failed = r.Attempted
	}
	if r.Failed == 0 {
		switch {
		case s.digest == "":
			s.digest = r.Digest
		case r.Digest != s.digest:
			if s.workload == suite {
				s.digestMismatch = true
				r.Problems = append(r.Problems, "suite stdout tables differ from the session's first run")
			} else {
				r.Failed = 1
				r.Problems = append(r.Problems, "simulated output differs from the session's first run")
			}
		}
	}
	s.attempted += r.Attempted
	s.failed += r.Failed
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", s.workload, p)
	}
	s.problems = append(s.problems, r.Problems...)
	s.runs = append(s.runs, runRecord{Traced: traced, WallS: r.WallS, MaxRSSMB: r.MaxRSSMB, AllocMB: r.AllocMB, Failed: r.Failed})
	return r
}

// measure runs the workload until the time budget is spent (at least
// once per kind), alternating untraced and traced runs when traced is
// set, and a set-up batch before each untraced run when it is not, so
// set-up samples spread over the whole session like the runs. A
// single-universe workload first makes one warm-up run, checked but not
// timed, so the binary and its page cache are warm.
func (s *session) measure(traced bool) (plain, withProfile []repResult, err error) {
	if s.workload != suite {
		s.run(false)
	}
	start := time.Now()
	for {
		if !traced {
			if err := s.measureSetup(); err != nil {
				return nil, nil, err
			}
		}
		plain = append(plain, s.run(false))
		if traced {
			withProfile = append(withProfile, s.run(true))
		}
		if time.Since(start) >= s.budget {
			return plain, withProfile, nil
		}
	}
}

// endToEnd measures the metrics a user of the simulator sees.
func (s *session) endToEnd() (map[string]float64, error) {
	plain, _, err := s.measure(false)
	if err != nil {
		return nil, err
	}
	ok := succeeded(plain)
	if len(ok) == 0 {
		return nil, fmt.Errorf("%s: every run failed: %s", s.workload, strings.Join(s.problems, "; "))
	}
	return map[string]float64{
		"wall_s":     median(ok, func(r repResult) float64 { return r.WallS }),
		"setup_s":    medianOf(s.setupSamples),
		"max_rss_mb": median(ok, func(r repResult) float64 { return r.MaxRSSMB }),
		"alloc_mb":   median(ok, func(r repResult) float64 { return r.AllocMB }),
	}, nil
}

// measureSetup times one batch of the workload's set-up: cluster.BuildE
// for a single-universe workload, built setupBuilds times in one child;
// for the suite, which builds inside its experiments, the start-up of
// startSamples fresh harness processes (exec, Go runtime and package
// initialisation). setup_s is the median of every sample of the session.
func (s *session) measureSetup() error {
	if s.workload != suite {
		var samples []float64
		if err := s.spawn("setup", &samples); err != nil {
			return err
		}
		s.setupSamples = append(s.setupSamples, samples...)
		return nil
	}
	for i := 0; i < startSamples; i++ {
		var none struct{}
		t0 := time.Now()
		if err := s.spawn("start", &none); err != nil {
			return err
		}
		s.setupSamples = append(s.setupSamples, time.Since(t0).Seconds())
	}
	return nil
}

// perLayer measures the per-layer metrics: counters from the layers'
// getters, CPU-profile shares from traced runs, tracing overhead, and
// isolated layer calls.
func (s *session) perLayer() (map[string]float64, error) {
	plain, traced, err := s.measure(true)
	if err != nil {
		return nil, err
	}
	ok, okTraced := succeeded(plain), succeeded(traced)
	if len(ok) == 0 || len(okTraced) == 0 {
		return nil, fmt.Errorf("%s: runs failed: %s", s.workload, strings.Join(s.problems, "; "))
	}
	m := map[string]float64{}
	first := ok[0]
	for k, v := range first.Counters {
		m[k] = v
	}
	wall := median(ok, func(r repResult) float64 { return r.WallS })
	if first.Events > 0 {
		m["sim.events_fired"] = float64(first.Events)
		m["sim.ns_per_event"] = wall * 1e9 / float64(first.Events)
		m["runtime.bytes_per_event"] = first.AllocMB * 1e6 / float64(first.Events)
		m["runtime.allocs_per_event"] = float64(first.Mallocs) / float64(first.Events)
	}
	m["runtime.gc_cycles"] = median(ok, func(r repResult) float64 { return float64(r.GCCycles) })
	m["trace.overhead_s"] = median(okTraced, func(r repResult) float64 { return r.WallS }) - wall

	var total int64
	samples := map[string]int64{}
	for _, r := range okTraced {
		for layer, n := range r.Samples {
			samples[layer] += n
			total += n
		}
	}
	m["trace.samples"] = float64(total)
	for _, layer := range layers {
		m[layer+".self_share"] = float64(samples[layer]) / float64(max(total, 1))
	}

	for _, e := range first.Experiments {
		if e.Events == 0 {
			continue // analytic: runs no simulator
		}
		var walls []float64
		for _, r := range ok {
			for _, x := range r.Experiments {
				if x.ID == e.ID {
					walls = append(walls, x.WallS)
				}
			}
		}
		m["experiments."+e.ID+".wall_s"] = medianOf(walls)
		m["experiments."+e.ID+".events"] = float64(e.Events)
	}

	var micro map[string]float64
	if err := s.spawn("micro", &micro); err != nil {
		return nil, err
	}
	for k, v := range micro {
		m[k] = v
	}
	return m, nil
}

// result renders the final line for the declared metrics. A declared
// metric the workload does not exercise (a fabric counter on the suite,
// an experiment's cost on a single universe) is reported as 0. A
// computed metric BENCHMARK.json does not declare is an error, except an
// experiment's, which is left out with a note.
func (s *session) result(computed map[string]float64, want []metricDecl) (string, error) {
	metrics := map[string]map[string]any{}
	declared := map[string]bool{}
	var absent []string
	for _, d := range want {
		declared[d.Name] = true
		v, ok := computed[d.Name]
		if !ok {
			absent = append(absent, d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for _, k := range sortedKeys(computed) {
		switch {
		case declared[k]:
		case strings.HasPrefix(k, "experiments."):
			fmt.Fprintf(os.Stderr, "perfbench: %s is not declared in BENCHMARK.json, left out\n", k)
		default:
			return "", fmt.Errorf("metric %s is computed but BENCHMARK.json does not declare it", k)
		}
	}
	if len(absent) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: not exercised by %s, reported as 0: %s\n", s.workload, strings.Join(absent, " "))
	}
	b, err := json.Marshal(map[string]any{
		"correct":   s.failed == 0 && !s.digestMismatch,
		"attempted": s.attempted,
		"failed":    s.failed,
		"metrics":   metrics,
	})
	return string(b), err
}

// succeeded keeps the runs whose operations all passed their checks.
func succeeded(rs []repResult) []repResult {
	var ok []repResult
	for _, r := range rs {
		if r.Failed == 0 {
			ok = append(ok, r)
		}
	}
	return ok
}

func median(rs []repResult, f func(repResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return medianOf(xs)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declared struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadDeclared reads the metric declarations, the single source of the
// metric names and units this harness reports.
func loadDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// fingerprint identifies the host and build a result was measured on;
// wall-clock figures from different fingerprints are not comparable.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func hostFingerprint() fingerprint {
	f := fingerprint{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		Commit:     "unknown (not a git checkout)",
		SourceHash: sourceHash("."),
	}
	if f.GOGC == "" {
		f.GOGC = "100 (Go default)"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The ceiling keeps git from searching the directories above the
	// checkout for a repository that is not this one.
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		f.Commit = strings.TrimSpace(string(out))
	}
	return f
}

// sourceHash digests the checkout's Go sources and module files, so a
// result names the code it measured even outside a git checkout.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
