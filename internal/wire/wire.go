// Package wire implements the on-the-wire packet formats used throughout
// the simulation: Ethernet II framing, IPv4, and UDP, with real header
// checksums. Packets flow between hosts as genuine byte slices so that both
// NIC models (the traditional DMA NIC and Lauberhorn's decoder pipeline)
// parse exactly what a hardware implementation would.
//
// Determinism invariants: builders, parsers, and the RSS flow hash are
// pure functions of their byte inputs — the same frame always hashes,
// steers, and parses the same way.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Sizes of the fixed headers, in bytes.
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20 // without options
	UDPHeaderLen      = 8
	HeadersLen        = EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen

	// MinFrameLen is the minimum Ethernet payload-carrying frame size
	// (without FCS); shorter frames are padded.
	MinFrameLen = 60
	// MTU is the maximum IP packet size carried in one frame. Datacenter
	// RPC fabrics of the class the paper targets run jumbo frames.
	MTU = 9000
	// MaxFrameLen is the maximum frame size at the jumbo MTU.
	MaxFrameLen = EthernetHeaderLen + MTU
	// MaxUDPPayload is the largest UDP payload in a single frame.
	MaxUDPPayload = MTU - IPv4HeaderLen - UDPHeaderLen
)

// EtherType values understood by the NIC models.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// ProtoUDP is the IPv4 protocol number for UDP.
const ProtoUDP = 17

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the MAC in colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IP is an IPv4 address.
type IP [4]byte

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Uint32 returns the address as a big-endian integer.
func (ip IP) Uint32() uint32 { return binary.BigEndian.Uint32(ip[:]) }

// IPFromUint32 converts a big-endian integer to an address.
func IPFromUint32(v uint32) IP {
	var ip IP
	binary.BigEndian.PutUint32(ip[:], v)
	return ip
}

// Errors returned by the parsers.
var (
	ErrTruncated     = errors.New("wire: truncated packet")
	ErrNotIPv4       = errors.New("wire: not an IPv4 packet")
	ErrNotUDP        = errors.New("wire: not a UDP datagram")
	ErrBadChecksum   = errors.New("wire: bad checksum")
	ErrBadVersion    = errors.New("wire: bad IP version/IHL")
	ErrBadLength     = errors.New("wire: inconsistent length fields")
	ErrPayloadTooBig = errors.New("wire: payload exceeds MTU")
)

// EthernetHeader is a parsed Ethernet II header.
type EthernetHeader struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// IPv4Header is a parsed IPv4 header (options unsupported — IHL must be 5).
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      IP
	Dst      IP
}

// UDPHeader is a parsed UDP header.
type UDPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// Checksum computes the Internet checksum (RFC 1071) over b.
//
//lhlint:hotpath
func Checksum(b []byte) uint16 {
	return ^fold(sum64(b, 0))
}

// sum64 adds b to the ones'-complement accumulator acc, eight bytes at
// a time. Each big-endian uint64 word is congruent, modulo 0xffff, to
// the sum of its four 16-bit words (2^16 ≡ 1), so the folded result is
// bit-identical to a 16-bit-word loop. b is read as if it started at an
// even offset of the checksummed stream; a trailing odd byte is padded
// with zero on the right, as RFC 1071 prescribes.
//
//lhlint:hotpath
func sum64(b []byte, acc uint64) uint64 {
	var c uint64
	for len(b) >= 32 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[0:8]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[8:16]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[16:24]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[24:32]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	for len(b) >= 2 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint16(b)), c)
		b = b[2:]
	}
	if len(b) == 1 {
		acc, c = bits.Add64(acc, uint64(b[0])<<8, c)
	}
	// End-around carry; acc+c can wrap only when acc is all ones, and
	// then the second carry lands on a zero.
	acc, c = bits.Add64(acc, c, 0)
	return acc + c
}

// fold reduces a ones'-complement accumulator to 16 bits with
// end-around carry. A nonzero input never folds to zero.
//
//lhlint:hotpath
func fold(acc uint64) uint16 {
	acc = acc&0xffffffff + acc>>32
	acc = acc&0xffffffff + acc>>32
	acc = acc&0xffff + acc>>16
	acc = acc&0xffff + acc>>16
	return uint16(acc)
}

// udpSum computes the RFC 1071 checksum of the IPv4 pseudo-header followed
// by the UDP segment, folding the pseudo-header in arithmetically instead
// of materializing it. skip names the byte offset of one 16-bit word in udp
// to treat as zero (the checksum field during verification); pass -1 to sum
// every word. skip must be even so the words after it keep their 16-bit
// phase. The pseudo-header is an even 12 bytes, so the result matches
// Checksum over the concatenated buffers exactly.
//
//lhlint:hotpath
func udpSum(src, dst IP, udp []byte, skip int) uint16 {
	acc := uint64(src.Uint32()) + uint64(dst.Uint32()) +
		uint64(ProtoUDP) + uint64(uint16(len(udp)))
	if skip >= 0 {
		acc = sum64(udp[:skip], acc)
		udp = udp[skip+2:]
	}
	return ^fold(sum64(udp, acc))
}

// udpChecksum computes the UDP checksum including the IPv4 pseudo-header.
//
//lhlint:hotpath
func udpChecksum(src, dst IP, udp []byte) uint16 {
	cs := udpSum(src, dst, udp, -1)
	if cs == 0 {
		cs = 0xffff // 0 means "no checksum" in UDP
	}
	return cs
}

// Flow identifies a UDP flow endpoint pair; the NICs use it for
// demultiplexing and RSS hashing.
type Flow struct {
	SrcIP   IP
	DstIP   IP
	SrcPort uint16
	DstPort uint16
}

// Reverse returns the flow with the direction swapped.
func (f Flow) Reverse() Flow {
	return Flow{SrcIP: f.DstIP, DstIP: f.SrcIP, SrcPort: f.DstPort, DstPort: f.SrcPort}
}

// String renders the flow as src -> dst.
func (f Flow) String() string {
	return fmt.Sprintf("%v:%d->%v:%d", f.SrcIP, f.SrcPort, f.DstIP, f.DstPort)
}

// Hash returns a Toeplitz-flavoured (here: FNV-1a) hash of the flow tuple,
// as used for receive-side scaling.
func (f Flow) Hash() uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime
	}
	for _, b := range f.SrcIP {
		mix(b)
	}
	for _, b := range f.DstIP {
		mix(b)
	}
	mix(byte(f.SrcPort >> 8))
	mix(byte(f.SrcPort))
	mix(byte(f.DstPort >> 8))
	mix(byte(f.DstPort))
	return h
}

// Endpoint is one side of a UDP flow.
type Endpoint struct {
	MAC  MAC
	IP   IP
	Port uint16
}

// BuildUDP assembles a complete Ethernet/IPv4/UDP frame carrying payload
// from src to dst, computing both checksums. The payload must fit the MTU.
// The returned frame is freshly allocated and owned by the caller; it
// outlives the builder (frames sit in NIC rings and propagate through
// the fabric) until a terminal consumer drops it. FramePool.BuildUDP is
// the recycling variant for paths with a provable terminal consumer.
//
//lhlint:hotpath
func BuildUDP(src, dst Endpoint, ipID uint16, payload []byte) ([]byte, error) {
	if len(payload) > MaxUDPPayload {
		return nil, errTooBig(len(payload))
	}
	f := make([]byte, paddedLen(len(payload)))
	fillUDP(f, src, dst, ipID, payload)
	return f, nil
}

// fillUDP writes the frame into f, which must be exactly
// paddedLen(len(payload)) long. Every byte is written — header fields
// that are zero (TOS, flags/fragment offset, the checksum words before
// they are summed) and the minimum-frame padding included — so f may
// hold any previous contents: a recycled buffer needs no clearing.
//
//lhlint:hotpath
func fillUDP(f []byte, src, dst Endpoint, ipID uint16, payload []byte) {
	// Ethernet.
	copy(f[0:6], dst.MAC[:])
	copy(f[6:12], src.MAC[:])
	binary.BigEndian.PutUint16(f[12:14], EtherTypeIPv4)

	// IPv4.
	ip := f[EthernetHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0    // TOS
	totalLen := IPv4HeaderLen + UDPHeaderLen + len(payload)
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	binary.BigEndian.PutUint16(ip[4:6], ipID)
	binary.BigEndian.PutUint16(ip[6:8], 0) // flags, fragment offset
	ip[8] = 64                             // TTL
	ip[9] = ProtoUDP
	binary.BigEndian.PutUint16(ip[10:12], 0)
	copy(ip[12:16], src.IP[:])
	copy(ip[16:20], dst.IP[:])
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))

	// UDP.
	udp := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], src.Port)
	binary.BigEndian.PutUint16(udp[2:4], dst.Port)
	udpLen := UDPHeaderLen + len(payload)
	binary.BigEndian.PutUint16(udp[4:6], uint16(udpLen))
	binary.BigEndian.PutUint16(udp[6:8], 0)
	copy(udp[UDPHeaderLen:], payload)
	clear(udp[udpLen:]) // minimum-frame padding
	binary.BigEndian.PutUint16(udp[6:8], udpChecksum(src.IP, dst.IP, udp[:udpLen]))
}

// errTooBig keeps the fmt boxing of the oversize-payload error off
// BuildUDP's hot path.
func errTooBig(n int) error {
	return fmt.Errorf("%w: %d > %d", ErrPayloadTooBig, n, MaxUDPPayload)
}

// Datagram is a fully parsed UDP-in-IPv4-in-Ethernet frame. Payload aliases
// the frame buffer, which Frame holds whole, so a terminal consumer that
// kept only the parsed datagram can still return the frame to its
// FramePool.
type Datagram struct {
	Eth     EthernetHeader
	IP      IPv4Header
	UDP     UDPHeader
	Flow    Flow
	Payload []byte
	Frame   []byte
}

// ParseUDP validates and parses a frame produced by BuildUDP (or any
// compliant stack). It verifies the IP header checksum and, when present,
// the UDP checksum.
func ParseUDP(frame []byte) (*Datagram, error) {
	d := new(Datagram)
	if err := ParseUDPInto(frame, d); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseUDPInto parses frame into d, which the caller owns (typically a
// reusable staging slot, so the steady-state receive path allocates
// nothing). On error d holds whatever fields were decoded before the
// failure. Frame is set to frame before any check, and Payload aliases
// frame either way.
//
//lhlint:hotpath
func ParseUDPInto(frame []byte, d *Datagram) error {
	d.Frame = frame
	if len(frame) < HeadersLen {
		return ErrTruncated
	}
	copy(d.Eth.Dst[:], frame[0:6])
	copy(d.Eth.Src[:], frame[6:12])
	d.Eth.EtherType = binary.BigEndian.Uint16(frame[12:14])
	if d.Eth.EtherType != EtherTypeIPv4 {
		return ErrNotIPv4
	}

	ip := frame[EthernetHeaderLen:]
	if ip[0] != 0x45 {
		return ErrBadVersion
	}
	if Checksum(ip[:IPv4HeaderLen]) != 0 {
		return ErrBadChecksum
	}
	d.IP.TOS = ip[1]
	d.IP.TotalLen = binary.BigEndian.Uint16(ip[2:4])
	d.IP.ID = binary.BigEndian.Uint16(ip[4:6])
	d.IP.TTL = ip[8]
	d.IP.Protocol = ip[9]
	d.IP.Checksum = binary.BigEndian.Uint16(ip[10:12])
	copy(d.IP.Src[:], ip[12:16])
	copy(d.IP.Dst[:], ip[16:20])
	if d.IP.Protocol != ProtoUDP {
		return ErrNotUDP
	}
	if int(d.IP.TotalLen) < IPv4HeaderLen+UDPHeaderLen || int(d.IP.TotalLen) > len(ip) {
		return ErrBadLength
	}

	udp := ip[IPv4HeaderLen:d.IP.TotalLen]
	d.UDP.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	d.UDP.DstPort = binary.BigEndian.Uint16(udp[2:4])
	d.UDP.Length = binary.BigEndian.Uint16(udp[4:6])
	d.UDP.Checksum = binary.BigEndian.Uint16(udp[6:8])
	if int(d.UDP.Length) != len(udp) {
		return ErrBadLength
	}
	if d.UDP.Checksum != 0 {
		// Verify by summing with the checksum word arithmetically zeroed
		// (offset 6), so no copy of the segment is needed.
		cs := udpSum(d.IP.Src, d.IP.Dst, udp, 6)
		if cs == 0 {
			cs = 0xffff
		}
		if cs != d.UDP.Checksum {
			return ErrBadChecksum
		}
	}
	d.Payload = udp[UDPHeaderLen:]
	d.Flow = Flow{SrcIP: d.IP.Src, DstIP: d.IP.Dst, SrcPort: d.UDP.SrcPort, DstPort: d.UDP.DstPort}
	return nil
}
