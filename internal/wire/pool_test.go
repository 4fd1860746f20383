package wire

import (
	"bytes"
	"testing"
)

var poolEPs = struct{ src, dst Endpoint }{
	src: Endpoint{MAC: MAC{2, 0, 0, 0, 2, 1}, IP: IP{10, 0, 2, 1}, Port: 10007},
	dst: Endpoint{MAC: MAC{2, 0, 0, 0, 1, 1}, IP: IP{10, 0, 1, 1}, Port: 9000},
}

// poolPayloadLens covers the empty and one-byte payloads (all padding),
// both sides of the padding boundary (17 B pads to MinFrameLen, 18 B
// fills it exactly), a mid-size and a 4 KiB payload, and the largest.
var poolPayloadLens = []int{0, 1, 17, 18, 300, 4096, MaxUDPPayload}

// TestFramePoolByteIdentical is the pool's core contract: a frame built
// from a recycled, garbage-filled buffer is byte-for-byte the frame a
// fresh allocation would produce — padding and zero header bytes
// included — and so is a Clone of it.
func TestFramePoolByteIdentical(t *testing.T) {
	p := new(FramePool)
	for i, n := range poolPayloadLens {
		payload := bytes.Repeat([]byte{0xa5}, n)
		want, err := BuildUDP(poolEPs.src, poolEPs.dst, 42, payload)
		if err != nil {
			t.Fatal(err)
		}
		// Recycle a buffer through the pool, then dirty every byte.
		dirty := make([]byte, HeadersLen+MaxUDPPayload)
		p.Put(dirty)
		for j := range dirty {
			dirty[j] = 0xff
		}
		got, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 42, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload len %d: pooled frame differs from fresh", n)
		}
		if &got[0] != &dirty[0] {
			t.Fatalf("payload len %d: pool did not recycle the Put buffer", n)
		}
		if _, err := ParseUDP(got); err != nil {
			t.Fatalf("payload len %d: pooled frame does not parse: %v", n, err)
		}

		// Clone round trip: a dirtied recycled buffer copies exactly,
		// and the copy is a distinct buffer.
		p.Put(got)
		for j := range dirty {
			dirty[j] = 0xff
		}
		c := p.Clone(want)
		if !bytes.Equal(c, want) || &c[0] != &dirty[0] {
			t.Fatalf("payload len %d: Clone differs or missed the free list", n)
		}
		if d := p.Clone(c); &d[0] == &c[0] || !bytes.Equal(d, want) {
			t.Fatalf("payload len %d: Clone of a pooled frame aliases or differs", n)
		}
		// Per payload: 3 Gets (build, two clones), 2 hits, 2 Puts.
		if k := uint64(i + 1); p.Gets != 3*k || p.Hits != 2*k || p.Puts != 2*k {
			t.Fatalf("payload len %d: stats gets=%d hits=%d puts=%d", n, p.Gets, p.Hits, p.Puts)
		}
	}
}

// TestFramePoolOwnershipChecker: in test binaries Put poisons the
// returned buffer and panics on a second Put of a buffer still on the
// free list.
func TestFramePoolOwnershipChecker(t *testing.T) {
	if !checkOwnership {
		t.Fatal("ownership checker off in a test binary")
	}
	p := new(FramePool)
	f, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 1, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	p.Put(f)
	for i, b := range f {
		if b != poison {
			t.Fatalf("byte %d = %#x after Put, want poison %#x", i, b, poison)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Put did not panic")
			}
		}()
		p.Put(f)
	}()
	// Once popped, the buffer may be returned again.
	g, _ := p.BuildUDP(poolEPs.src, poolEPs.dst, 2, nil)
	p.Put(g)
	if p.Free() != 1 {
		t.Fatalf("free=%d, want 1", p.Free())
	}
}

// TestFramePoolHitAllocs pins the hit path at zero allocations: a frame
// built from the free list, returned, and cloned allocates nothing.
func TestFramePoolHitAllocs(t *testing.T) {
	p := new(FramePool)
	payload := bytes.Repeat([]byte{1}, 4096)
	p.Put(make([]byte, HeadersLen+MaxUDPPayload))
	p.Put(make([]byte, HeadersLen+MaxUDPPayload))
	allocs := testing.AllocsPerRun(100, func() {
		f, _ := p.BuildUDP(poolEPs.src, poolEPs.dst, 3, payload)
		c := p.Clone(f)
		p.Put(f)
		p.Put(c)
	})
	if allocs != 0 {
		t.Fatalf("pool hit path allocates %.1f times per op", allocs)
	}
}

// TestFramePoolMissAndForeignBuffers: an empty pool allocates at full
// frame capacity; a migrated-in buffer too small for the next request is
// dropped, not retried.
func TestFramePoolMissAndForeignBuffers(t *testing.T) {
	p := new(FramePool)
	f, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hits != 0 || cap(f) != HeadersLen+MaxUDPPayload {
		t.Fatalf("miss path: hits=%d cap=%d", p.Hits, cap(f))
	}
	// A minimum-size foreign frame cannot serve a near-MTU payload.
	p.Put(make([]byte, MinFrameLen))
	big, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 2, bytes.Repeat([]byte{1}, MaxUDPPayload))
	if err != nil {
		t.Fatal(err)
	}
	if p.Hits != 0 {
		t.Fatal("undersized buffer served a hit")
	}
	if p.Free() != 0 {
		t.Fatalf("undersized buffer retained: free=%d", p.Free())
	}
	if len(big) != HeadersLen+MaxUDPPayload {
		t.Fatalf("frame len %d", len(big))
	}
	// Undersized Put is refused outright.
	p.Put(make([]byte, 8))
	if p.Free() != 0 {
		t.Fatal("pool accepted an 8-byte buffer")
	}
}

// TestFramePoolNil: a nil pool is plain allocation and a no-op sink.
func TestFramePoolNil(t *testing.T) {
	var p *FramePool
	f, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 7, []byte("hi"))
	if err != nil || len(f) != MinFrameLen {
		t.Fatalf("nil pool build: %v len %d", err, len(f))
	}
	p.Put(f)
	if p.Free() != 0 {
		t.Fatal("nil pool retained a frame")
	}
}

// BenchmarkFramePool measures the steady-state hit path: BuildUDP from
// a recycled buffer at 64 B and 4 KiB payloads, and a 4 KiB Clone. The
// ownership checker is switched off so the figures are what a
// production binary pays.
func BenchmarkFramePool(b *testing.B) {
	defer func(on bool) { checkOwnership = on }(checkOwnership)
	checkOwnership = false
	for _, bc := range []struct {
		name  string
		n     int
		clone bool
	}{{"build_64b", 64, false}, {"build_4k", 4096, false}, {"clone_4k", 4096, true}} {
		b.Run(bc.name, func(b *testing.B) {
			p := new(FramePool)
			payload := bytes.Repeat([]byte{1}, bc.n)
			f, _ := p.BuildUDP(poolEPs.src, poolEPs.dst, 1, payload)
			p.Put(make([]byte, HeadersLen+MaxUDPPayload)) // every iteration hits
			b.SetBytes(int64(len(f)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var g []byte
				if bc.clone {
					g = p.Clone(f)
				} else {
					g, _ = p.BuildUDP(poolEPs.src, poolEPs.dst, uint16(i), payload)
				}
				p.Put(g)
			}
		})
	}
}
