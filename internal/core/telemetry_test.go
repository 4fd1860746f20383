package core

import (
	"strings"
	"testing"

	"lauberhorn/internal/sim"
)

func TestTelemetryCountsDispatchPaths(t *testing.T) {
	s, h, client := lhRig(t, 1, 0)
	s.RunUntil(sim.Millisecond)
	// First request: kernel dispatch. Later ones: fast path.
	for i := 0; i < 5; i++ {
		id := uint64(i + 1)
		client.send(t, 9000, 1, 1, id, []byte("x"))
		s.RunUntil(s.Now() + 2*sim.Millisecond)
	}
	tl := h.NIC.Telemetry(1)
	if tl == nil {
		t.Fatal("no telemetry for svc 1")
	}
	if tl.Arrivals != 5 {
		t.Errorf("arrivals %d", tl.Arrivals)
	}
	if tl.ViaKernel != 1 {
		t.Errorf("viaKernel %d, want 1", tl.ViaKernel)
	}
	if tl.Fast != 4 {
		t.Errorf("fast %d, want 4", tl.Fast)
	}
	if tl.Fast+tl.ViaKernel != tl.Arrivals {
		t.Errorf("dispatch paths %d+%d != arrivals %d", tl.Fast, tl.ViaKernel, tl.Arrivals)
	}
	if tl.QueueDelay.Count() != 5 {
		t.Errorf("queue-delay samples %d", tl.QueueDelay.Count())
	}
}

func TestTelemetryRateEstimate(t *testing.T) {
	s, h, client := lhRig(t, 1, 0)
	s.RunUntil(sim.Millisecond)
	// 100 requests at 10us spacing = 100 krps.
	for i := 0; i < 100; i++ {
		id := uint64(i + 1)
		at := s.Now() + sim.Time(i)*10*sim.Microsecond
		s.At(at, "send", func() { client.send(t, 9000, 1, 1, id, []byte("x")) })
	}
	s.RunUntil(s.Now() + 10*sim.Millisecond)
	tl := h.NIC.Telemetry(1)
	if tl.RateEWMA < 50_000 || tl.RateEWMA > 150_000 {
		t.Errorf("rate estimate %.0f/s, want ~100k", tl.RateEWMA)
	}
}

func TestTelemetryReportFormat(t *testing.T) {
	s, h, client := lhRig(t, 1, 0)
	s.RunUntil(sim.Millisecond)
	client.send(t, 9000, 1, 1, 1, []byte("x"))
	s.RunUntil(s.Now() + 5*sim.Millisecond)
	rep := h.NIC.TelemetryReport()
	for _, want := range []string{"svc 1", "arrivals=1", "qdelay"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
