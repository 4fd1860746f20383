package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Sinks keep the compiler from discarding the timed calls.
var (
	sinkFrame []byte
	sinkErr   error
)

// microMetrics times single layer calls from outside the simulator, at a
// 64 B and a 4 KiB payload, so per-byte cost (checksums, copies) shows
// apart from per-event cost (the sim schedule->fire loop). It first
// checks that each call round-trips its input.
func microMetrics() (map[string]float64, error) {
	src := wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 2, 1}, IP: wire.IP{10, 0, 2, 1}, Port: 40000}
	dst := wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 1, 1}, IP: wire.IP{10, 0, 1, 1}, Port: 9000}
	m := map[string]float64{}
	for _, sz := range []struct {
		label string
		n     int
	}{{"64b", 64}, {"4k", 4096}} {
		payload := make([]byte, sz.n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		frame, err := wire.BuildUDP(src, dst, 1, payload)
		if err != nil {
			return nil, fmt.Errorf("wire.BuildUDP(%d B): %w", sz.n, err)
		}
		var d wire.Datagram
		if err := wire.ParseUDPInto(frame, &d); err != nil || !bytes.Equal(d.Payload, payload) {
			return nil, fmt.Errorf("wire.ParseUDPInto(%d B) does not round-trip (err %v)", sz.n, err)
		}
		msg := rpc.EncodeRequest(1, 1, 42, 0, payload)
		var rm rpc.Message
		if err := rpc.DecodeInto(msg, &rm); err != nil || !bytes.Equal(rm.Body, payload) || rm.ID != 42 {
			return nil, fmt.Errorf("rpc.DecodeInto(%d B) does not round-trip (err %v)", sz.n, err)
		}

		record := func(name string, op func()) {
			ns, allocs := timeOp(op)
			m[name+"_"+sz.label+".ns_per_op"] = ns
			m[name+"_"+sz.label+".allocs_per_op"] = allocs
		}
		record("wire.build_udp", func() { sinkFrame, sinkErr = wire.BuildUDP(src, dst, 1, payload) })
		record("wire.parse_udp", func() { sinkErr = wire.ParseUDPInto(frame, &d) })
		record("rpc.decode", func() { sinkErr = rpc.DecodeInto(msg, &rm) })
	}
	m["sim.schedule_fire.ns_per_event"] = scheduleFire()
	return m, nil
}

// timeOp returns op's median ns/op over seven batches of about 20 ms,
// and its heap allocations per op.
func timeOp(op func()) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(t0) > 20*time.Millisecond {
			break
		}
		n *= 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(n)

	per := make([]float64, 7)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	slices.Sort(per)
	return per[len(per)/2], allocsPerOp
}

// scheduleFire measures the queue's steady state, one self-rescheduling
// event (the shape of every model timer), as median ns per fired event
// over seven runs.
func scheduleFire() float64 {
	const n = 500_000
	per := make([]float64, 7)
	for b := range per {
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
		t0 := time.Now()
		s.Run()
		per[b] = float64(time.Since(t0).Nanoseconds()) / n
	}
	slices.Sort(per)
	return per[len(per)/2]
}
