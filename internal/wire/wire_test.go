package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

var (
	srcEP = Endpoint{MAC: MAC{2, 0, 0, 0, 0, 1}, IP: IP{10, 0, 0, 1}, Port: 4000}
	dstEP = Endpoint{MAC: MAC{2, 0, 0, 0, 0, 2}, IP: IP{10, 0, 0, 2}, Port: 9000}
)

func TestBuildParseRoundTrip(t *testing.T) {
	payload := []byte("hello lauberhorn")
	f, err := BuildUDP(srcEP, dstEP, 77, payload)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Fatalf("payload mismatch: %q", d.Payload)
	}
	if d.Eth.Src != srcEP.MAC || d.Eth.Dst != dstEP.MAC {
		t.Error("MAC mismatch")
	}
	if d.IP.Src != srcEP.IP || d.IP.Dst != dstEP.IP {
		t.Error("IP mismatch")
	}
	if d.UDP.SrcPort != 4000 || d.UDP.DstPort != 9000 {
		t.Error("port mismatch")
	}
	if d.IP.ID != 77 {
		t.Errorf("IP ID %d, want 77", d.IP.ID)
	}
	if d.IP.TTL != 64 {
		t.Errorf("TTL %d, want 64", d.IP.TTL)
	}
}

func TestBuildPadsToMinFrame(t *testing.T) {
	f, err := BuildUDP(srcEP, dstEP, 1, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != MinFrameLen {
		t.Fatalf("frame len %d, want %d", len(f), MinFrameLen)
	}
	d, err := ParseUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Payload) != 1 || d.Payload[0] != 1 {
		t.Fatalf("payload after padding: %v", d.Payload)
	}
}

func TestBuildEmptyPayload(t *testing.T) {
	f, err := BuildUDP(srcEP, dstEP, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Payload) != 0 {
		t.Fatalf("payload %v, want empty", d.Payload)
	}
}

func TestBuildMaxPayload(t *testing.T) {
	big := make([]byte, MaxUDPPayload)
	for i := range big {
		big[i] = byte(i)
	}
	f, err := BuildUDP(srcEP, dstEP, 1, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != MaxFrameLen {
		t.Fatalf("frame len %d, want %d", len(f), MaxFrameLen)
	}
	d, err := ParseUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, big) {
		t.Fatal("max payload mismatch")
	}
}

func TestBuildTooBig(t *testing.T) {
	_, err := BuildUDP(srcEP, dstEP, 1, make([]byte, MaxUDPPayload+1))
	if !errors.Is(err, ErrPayloadTooBig) {
		t.Fatalf("err = %v, want ErrPayloadTooBig", err)
	}
}

func TestParseTruncated(t *testing.T) {
	if _, err := ParseUDP(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestParseNotIPv4(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("x"))
	binary.BigEndian.PutUint16(f[12:14], EtherTypeARP)
	if _, err := ParseUDP(f); !errors.Is(err, ErrNotIPv4) {
		t.Fatalf("err = %v, want ErrNotIPv4", err)
	}
}

func TestParseNotUDP(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("x"))
	ip := f[EthernetHeaderLen:]
	ip[9] = 6 // TCP
	// fix IP checksum
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))
	if _, err := ParseUDP(f); !errors.Is(err, ErrNotUDP) {
		t.Fatalf("err = %v, want ErrNotUDP", err)
	}
}

func TestParseCorruptIPChecksum(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("x"))
	f[EthernetHeaderLen+12] ^= 0xff // flip a src IP byte
	if _, err := ParseUDP(f); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestParseCorruptPayload(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("hello"))
	f[HeadersLen] ^= 0x01
	if _, err := ParseUDP(f); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum (UDP)", err)
	}
}

func TestParseBadVersion(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("x"))
	f[EthernetHeaderLen] = 0x46 // IHL 6
	if _, err := ParseUDP(f); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestParseBadLength(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("abcdef"))
	ip := f[EthernetHeaderLen:]
	binary.BigEndian.PutUint16(ip[2:4], uint16(len(ip))+100)
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))
	if _, err := ParseUDP(f); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 = 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
	// Odd length.
	if got := Checksum([]byte{0xff}); got != ^uint16(0xff00) {
		t.Fatalf("odd-length checksum = %#04x", got)
	}
}

func TestFlowHashAndReverse(t *testing.T) {
	fl := Flow{SrcIP: IP{10, 0, 0, 1}, DstIP: IP{10, 0, 0, 2}, SrcPort: 1, DstPort: 2}
	rev := fl.Reverse()
	if rev.SrcIP != fl.DstIP || rev.SrcPort != fl.DstPort {
		t.Fatal("Reverse wrong")
	}
	if rev.Reverse() != fl {
		t.Fatal("double reverse not identity")
	}
	if fl.Hash() == rev.Hash() {
		t.Log("forward and reverse hash equal (allowed but unlikely)")
	}
	other := fl
	other.SrcPort = 3
	if fl.Hash() == other.Hash() {
		t.Error("different flows hash equal")
	}
}

func TestStringFormats(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Errorf("MAC.String = %q", m.String())
	}
	ip := IP{192, 168, 1, 9}
	if ip.String() != "192.168.1.9" {
		t.Errorf("IP.String = %q", ip.String())
	}
	fl := Flow{SrcIP: ip, DstIP: IP{10, 0, 0, 1}, SrcPort: 5, DstPort: 6}
	if !strings.Contains(fl.String(), "->") {
		t.Errorf("Flow.String = %q", fl.String())
	}
}

func TestIPUint32RoundTrip(t *testing.T) {
	ip := IP{1, 2, 3, 4}
	if IPFromUint32(ip.Uint32()) != ip {
		t.Fatal("IP uint32 round trip failed")
	}
	if ip.Uint32() != 0x01020304 {
		t.Fatalf("Uint32 = %#x", ip.Uint32())
	}
}

// Property: build→parse round-trips arbitrary payloads and endpoints.
func TestRoundTripProperty(t *testing.T) {
	f := func(payload []byte, sp, dp uint16, id uint16, a, b byte) bool {
		if len(payload) > MaxUDPPayload {
			payload = payload[:MaxUDPPayload]
		}
		src := Endpoint{MAC: MAC{2, 0, 0, 0, 0, a}, IP: IP{10, 0, 0, a}, Port: sp}
		dst := Endpoint{MAC: MAC{2, 0, 0, 0, 0, b}, IP: IP{10, 0, 1, b}, Port: dp}
		frame, err := BuildUDP(src, dst, id, payload)
		if err != nil {
			return false
		}
		d, err := ParseUDP(frame)
		if err != nil {
			return false
		}
		return bytes.Equal(d.Payload, payload) &&
			d.UDP.SrcPort == sp && d.UDP.DstPort == dp &&
			d.Flow.SrcIP == src.IP && d.Flow.DstIP == dst.IP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-bit corruption anywhere in the UDP section is detected.
func TestCorruptionDetectedProperty(t *testing.T) {
	f := func(payload []byte, pos uint16, bit uint8) bool {
		if len(payload) == 0 || len(payload) > 256 {
			return true
		}
		frame, err := BuildUDP(srcEP, dstEP, 9, payload)
		if err != nil {
			return false
		}
		// Corrupt within the UDP header+payload region (checksummed).
		off := EthernetHeaderLen + IPv4HeaderLen + int(pos)%(UDPHeaderLen+len(payload))
		frame[off] ^= 1 << (bit % 8)
		_, err = ParseUDP(frame)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refUDPSum is the straightforward 16-bit-word form of udpSum: one word
// per iteration, skipping the word at byte offset skip. The word-at-a-time
// kernel must match it bit for bit.
func refUDPSum(src, dst IP, udp []byte, skip int) uint16 {
	sum := uint32(binary.BigEndian.Uint16(src[0:2])) +
		uint32(binary.BigEndian.Uint16(src[2:4])) +
		uint32(binary.BigEndian.Uint16(dst[0:2])) +
		uint32(binary.BigEndian.Uint16(dst[2:4])) +
		uint32(ProtoUDP) + uint32(uint16(len(udp)))
	i := 0
	for ; i+1 < len(udp); i += 2 {
		if i == skip {
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(udp[i:]))
	}
	if i < len(udp) {
		sum += uint32(udp[i]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// pseudoChecksum materializes the IPv4 pseudo-header in front of udp and
// runs Checksum over the concatenation, which is what udpSum(…, -1)
// computes without the copy.
func pseudoChecksum(src, dst IP, udp []byte) uint16 {
	buf := make([]byte, 12, 12+len(udp))
	copy(buf[0:4], src[:])
	copy(buf[4:8], dst[:])
	buf[9] = ProtoUDP
	binary.BigEndian.PutUint16(buf[10:12], uint16(len(udp)))
	return Checksum(append(buf, udp...))
}

// checkUDPSum compares udpSum with refUDPSum for every skip the callers
// use (-1 when building, 6 when verifying), and Checksum over the
// materialized pseudo-header with the full sum.
func checkUDPSum(t *testing.T, src, dst IP, udp []byte) {
	t.Helper()
	for _, skip := range []int{-1, 6} {
		if skip >= 0 && len(udp) < skip+2 {
			continue
		}
		got, want := udpSum(src, dst, udp, skip), refUDPSum(src, dst, udp, skip)
		if got != want {
			t.Fatalf("udpSum(len=%d, skip=%d) = %#04x, reference %#04x (udp=% x)",
				len(udp), skip, got, want, udp)
		}
	}
	if got, want := pseudoChecksum(src, dst, udp), refUDPSum(src, dst, udp, -1); got != want {
		t.Fatalf("Checksum over pseudo-header (len=%d) = %#04x, reference %#04x", len(udp), got, want)
	}
}

func TestUDPSumMatchesReference(t *testing.T) {
	var lengths []int
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	for n := 8970; n <= 8980; n++ {
		lengths = append(lengths, n)
	}
	rng := rand.New(rand.NewSource(1))
	ips := [][2]IP{
		{srcEP.IP, dstEP.IP},
		{{0xff, 0xff, 0xff, 0xff}, {0xff, 0xff, 0xff, 0xff}},
		{{0, 0, 0, 0}, {0, 0, 0, 0}},
	}
	fills := []struct {
		name string
		fill func([]byte)
	}{
		{"zero", func(b []byte) {}},
		{"ones", func(b []byte) {
			for i := range b {
				b[i] = 0xff
			}
		}},
		{"random", func(b []byte) { rng.Read(b) }},
	}
	for _, fl := range fills {
		for _, n := range lengths {
			udp := make([]byte, n)
			fl.fill(udp)
			for _, ip := range ips {
				checkUDPSum(t, ip[0], ip[1], udp)
			}
		}
	}
}

// FuzzUDPSum checks the word-at-a-time kernel against the 16-bit
// reference for arbitrary segments and addresses.
func FuzzUDPSum(f *testing.F) {
	for _, p := range roundTripPayloads() {
		f.Add(append(make([]byte, UDPHeaderLen), p...), srcEP.IP.Uint32(), dstEP.IP.Uint32())
	}
	f.Add(bytes.Repeat([]byte{0xff}, 77), ^uint32(0), ^uint32(0))
	f.Fuzz(func(t *testing.T, udp []byte, src, dst uint32) {
		checkUDPSum(t, IPFromUint32(src), IPFromUint32(dst), udp)
	})
}

// FuzzParseUDPInto feeds arbitrary bytes to the parser, which must never
// panic, then uses them as a payload: build→parse must round-trip it,
// and changing any one payload byte must fail the UDP checksum.
func FuzzParseUDPInto(f *testing.F) {
	for _, p := range roundTripPayloads() {
		f.Add(p, uint16(0), byte(1))
		if frame, err := BuildUDP(srcEP, dstEP, 77, p); err == nil {
			f.Add(frame, uint16(len(p)/2), byte(0x80))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, delta byte) {
		var d Datagram
		_ = ParseUDPInto(data, &d)

		payload := data
		if len(payload) > MaxUDPPayload {
			payload = payload[:MaxUDPPayload]
		}
		frame, err := BuildUDP(srcEP, dstEP, 77, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseUDPInto(frame, &d); err != nil {
			t.Fatalf("parse of built frame: %v", err)
		}
		if !bytes.Equal(d.Payload, payload) {
			t.Fatalf("payload mismatch: got % x, want % x", d.Payload, payload)
		}
		if len(payload) == 0 || delta == 0 {
			return
		}
		frame[HeadersLen+int(pos)%len(payload)] ^= delta
		if err := ParseUDPInto(frame, &d); !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("corrupted payload byte %d: err = %v, want ErrBadChecksum", int(pos)%len(payload), err)
		}
	})
}

// roundTripPayloads are the payloads of the build/parse round-trip tests,
// used to seed the fuzz corpora.
func roundTripPayloads() [][]byte {
	big := make([]byte, MaxUDPPayload)
	for i := range big {
		big[i] = byte(i)
	}
	return [][]byte{[]byte("hello lauberhorn"), nil, {1}, []byte("hello"), []byte("abcdef"), big}
}

var udpSumSink uint16

// BenchmarkUDPSum measures the verifying sum (checksum word skipped) over
// UDP segments from a minimum RPC to a full jumbo frame.
func BenchmarkUDPSum(b *testing.B) {
	for _, n := range []int{64, 1472, 4096, 8972} {
		udp := make([]byte, n)
		for i := range udp {
			udp[i] = byte(i)
		}
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				udpSumSink = udpSum(srcEP.IP, dstEP.IP, udp, 6)
			}
		})
	}
}
