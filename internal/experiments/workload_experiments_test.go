package experiments

import (
	"testing"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/workload"
)

// TestE23Claims pins the open-loop knee and the burstiness claim: the
// Poisson ladder's tail explodes as offered load crosses service
// capacity (top rung p99 at least 20x the bottom rung's), served
// saturates at the top while sent keeps growing (the open-loop
// signature — a closed-loop client would slow down instead), and the
// MMPP and diurnal rows land far above the Poisson row of the *same
// mean rate*: mean offered load does not determine the tail once
// arrivals cluster.
func TestE23Claims(t *testing.T) {
	tb := E23OpenLoop(nil)
	rows := e23Arrivals()
	if len(tb.Rows) != len(rows) {
		t.Fatalf("%d rows, want %d", len(tb.Rows), len(rows))
	}
	// columns: 0 arrivals, 1 mean offered, 2 sent, 3 completed,
	// 4 served, 5 p50, 6 p99.
	idx := func(label string) int {
		for i, r := range rows {
			if r.Label == label {
				return i
			}
		}
		t.Fatalf("no row %q", label)
		return -1
	}
	for r := range tb.Rows {
		if tget(t, tb.Rows, r, 3) == 0 {
			t.Errorf("row %d (%s) completed nothing", r, tb.Rows[r][0])
		}
	}
	bottom, mid, top := idx("poisson 50k"), idx("poisson 180k"), idx("poisson 260k")

	// The knee: the top rung's p99 dwarfs the bottom rung's.
	if lo, hi := tget(t, tb.Rows, bottom, 6), tget(t, tb.Rows, top, 6); hi < 20*lo {
		t.Errorf("top-rung p99 %.1f us not >= 20x bottom-rung %.1f us — no knee", hi, lo)
	}
	// Open loop: past the knee, sent keeps growing while served is
	// pinned at capacity.
	if sent, served := tget(t, tb.Rows, top, 2), tget(t, tb.Rows, top, 4); sent < 1.15*served {
		t.Errorf("top rung sent %.0f not well above served %.0f — generator is not open loop", sent, served)
	}
	// Burstiness: same mean, fatter tail.
	midP99 := tget(t, tb.Rows, mid, 6)
	for _, burst := range []string{"mmpp 60k/300k", "diurnal 60k/300k"} {
		r := idx(burst)
		if off := tget(t, tb.Rows, r, 1); off != e23MeanRate {
			t.Errorf("%s offered %.0f krps, want %d", burst, off, e23MeanRate)
		}
		if p99 := tget(t, tb.Rows, r, 6); p99 <= 1.5*midP99 {
			t.Errorf("%s p99 %.1f us not well above poisson-180k p99 %.1f us", burst, p99, midP99)
		}
	}
	t.Logf("\n%s", tb)
}

// TestE24Claims pins the DAG tail amplification: every nested shape
// multiplies the direct baseline's p99, edges record exactly the nested
// traffic (the direct row has none), the loose budgets never trip, and
// the impossible fanout-tight budget flags essentially every call on
// its edge.
func TestE24Claims(t *testing.T) {
	tb := E24DAG(nil)
	if len(tb.Rows) != len(e24Shapes) {
		t.Fatalf("%d rows, want %d", len(tb.Rows), len(e24Shapes))
	}
	// columns: 0 shape, 1 completed, 2 served, 3 p50, 4 p99, 5 amp,
	// 6 edge calls, 7 violations.
	idx := func(shape string) int {
		for i, s := range e24Shapes {
			if s == shape {
				return i
			}
		}
		t.Fatalf("no shape %q", shape)
		return -1
	}
	for r := range tb.Rows {
		if tget(t, tb.Rows, r, 1) == 0 {
			t.Errorf("shape %s completed nothing", tb.Rows[r][0])
		}
	}
	direct := idx("direct")
	if calls := tget(t, tb.Rows, direct, 6); calls != 0 {
		t.Errorf("direct shape recorded %.0f edge calls", calls)
	}
	directP99 := tget(t, tb.Rows, direct, 4)
	for _, shape := range []string{"chain3", "fanout-loose", "fanout-tight"} {
		r := idx(shape)
		if p99 := tget(t, tb.Rows, r, 4); p99 <= 2*directP99 {
			t.Errorf("%s p99 %.1f us does not amplify direct %.1f us", shape, p99, directP99)
		}
		if calls := tget(t, tb.Rows, r, 6); calls == 0 {
			t.Errorf("%s recorded no edge calls", shape)
		}
	}
	for _, shape := range []string{"chain3", "fanout-loose"} {
		if v := tget(t, tb.Rows, idx(shape), 7); v != 0 {
			t.Errorf("%s has %.0f violations under 100us budgets", shape, v)
		}
	}
	tight := idx("fanout-tight")
	v, completed := tget(t, tb.Rows, tight, 7), tget(t, tb.Rows, tight, 1)
	if v < 0.9*completed {
		t.Errorf("fanout-tight flagged %.0f of %.0f calls; a 2us budget is unmeetable", v, completed)
	}
	t.Logf("\n%s", tb)
}

// TestFluidAggregationReducesEvents is the representation-switch
// acceptance claim at scenario scale: on the long-transfer background
// workload the fluid fast path fires at least 5x fewer simulator events
// than per-packet execution while delivering byte-identical payloads.
func TestFluidAggregationReducesEvents(t *testing.T) {
	pktEvents, pktBytes := fluidScenario(false)
	fluEvents, fluBytes := fluidScenario(true)
	if pktBytes == 0 || pktBytes != fluBytes {
		t.Fatalf("delivered bytes differ: %d per-packet vs %d fluid", pktBytes, fluBytes)
	}
	if fluEvents*5 > pktEvents {
		t.Fatalf("fluid scenario fired %d events vs %d per-packet — below the 5x cut", fluEvents, pktEvents)
	}
	// Determinism: the scenario is a pure function of its fixed seeds.
	e2, b2 := fluidScenario(true)
	if e2 != fluEvents || b2 != fluBytes {
		t.Fatalf("fluid scenario not deterministic: (%d,%d) vs (%d,%d)", e2, b2, fluEvents, fluBytes)
	}
	t.Logf("per-packet %d events, fluid %d events (%.1fx), %d bytes",
		pktEvents, fluEvents, float64(pktEvents)/float64(fluEvents), pktBytes)
}

// fluidScenario is the long-transfer background workload behind
// TestFluidAggregationReducesEvents: four bulk sources on independent
// 100G links push a heavy-tailed transfer mix — mostly small 16 KiB
// objects by count, most *bytes* in 1-4 MiB transfers — for 50 ms of
// simulated time, either per-packet or with transfers at or above the
// 64 KiB threshold as fluid flows. The 64 KiB switch point is the
// cluster-scale analogue of the Hybrid stack's ~4 KiB cache-line/DMA
// crossover — below it per-frame accounting is cheap and exact, above
// it only aggregate progress matters.
func fluidScenario(fluid bool) (events uint64, bytes int64) {
	const (
		links     = 4
		threshold = 64 << 10
		horizon   = 50 * sim.Millisecond
	)
	s := sim.New(42)
	var sinks []*workload.BulkSink
	for i := 0; i < links; i++ {
		link := fabric.NewLink(s, fabric.Net100G)
		sink := &workload.BulkSink{S: s, Overhead: workload.DefaultBulkOverhead}
		link.Attach(sink, sink)
		src := workload.NewBulkSource(s, workload.BulkConfig{
			Size: workload.NewMixtureSize("bulk-mix",
				[]int{16 << 10, 1 << 20, 4 << 20},
				[]float64{0.50, 0.35, 0.15}),
			Arrivals:  workload.Poisson{Mean: 300 * sim.Microsecond},
			Threshold: threshold,
			Fluid:     fluid,
			Seed:      uint64(1000 + i),
		}, link, 0, sink)
		src.Start(horizon)
		sinks = append(sinks, sink)
	}
	s.Run()
	for _, sink := range sinks {
		bytes += sink.Bytes
	}
	return s.Fired(), bytes
}
