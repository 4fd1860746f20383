package wire

import "testing"

// FramePool is a free list for the frame buffers BuildUDP allocates, so
// the model's steady state recycles every request and response frame
// instead of allocating one per send.
//
// Ownership-transfer contract. In a universe with pools armed, every
// frame is drawn from its Sim's pool (BuildUDP or Clone) and transfers
// ownership whole down the tx path: through the NIC, the link, and the
// fabric to exactly one terminal consumer. The terminal consumer — and
// only it — returns the frame with Put, and only once every alias it
// took (parsed Datagram payloads, decoded message bodies) is dead. The
// terminal consumers are:
//
//   - workload.Generator, for every frame delivered to it;
//   - the kernel stack's server (kstack), once the response frame is
//     built: by then the destination has been read and the response
//     body copied into the encoding scratch; the bypass worker likewise,
//     once the response is sent;
//   - the Lauberhorn NIC (core), when a request's inflight entry is
//     freed after its response leaves (requests answered through the §6
//     DMA-out path are never freed, so their frames are never returned),
//     and when it has copied a nested call's response body;
//   - every drop: NIC receive paths for bad, filtered, ring-full or
//     undecodable frames (nicdma, core), the kernel stack's no-socket
//     and socket-buffer-overflow drops, NIC transmits toward a downed carrier, fabric.Link carrier,
//     tail and purge drops, and fabric.Switch drain and no-route drops;
//   - the transports: retry's suppressed duplicates and replayed
//     requests, credit's absorbed control frames.
//
// Transports keep their own copies (retransmit masters, cached
// responses) in a private free list; the copies they put on the wire —
// retransmits, replays — are Clones, owned like any other frame.
//
// Two corollaries:
//
//   - One buffer never reaches two consumers. A switch that floods a
//     broadcast in a pool-armed universe sends each extra egress port its
//     own Clone. The learning switch of a star topology floods unknown
//     unicast too, so the cluster builder arms pools only for Direct
//     links and routed (statically programmed) fabrics.
//   - A pool belongs to one shard: it is single-threaded by the same
//     contract as the rest of the model, touched only by components on
//     its shard's Sim. Frames routinely DIE on a different shard than
//     they were built on; the consumer Puts into its own shard's pool,
//     so buffers migrate between pools but each free list stays
//     unsynchronized.
//
// A nil *FramePool is valid and degrades to plain allocation, so pool
// plumbing is optional everywhere.
//
// In test binaries Put also checks the contract: it panics on a buffer
// already on the free list (a double Put) and overwrites the returned
// bytes with a poison pattern, so a read after Put changes output.
type FramePool struct {
	free [][]byte

	// onFree tracks the buffers on the free list, by first byte; it
	// exists only in test binaries (see checkOwnership).
	onFree map[*byte]struct{}

	// Gets counts pooled BuildUDP and Clone calls, Hits the subset served
	// from the free list, Puts the frames returned.
	Gets, Hits, Puts uint64
}

// checkOwnership arms Put's double-Put check and poisoning. It is fixed
// at start-up, so production binaries pay one predictable branch.
var checkOwnership = testing.Testing()

// poison is the byte Put fills returned buffers with in test binaries;
// poisonBlock is a frame's worth of it, copied rather than looped, and
// filled only in test binaries.
const poison = 0xdb

var poisonBlock [HeadersLen + MaxUDPPayload]byte

func init() {
	if checkOwnership {
		for i := range poisonBlock {
			poisonBlock[i] = poison
		}
	}
}

// paddedLen is the allocated frame length for a payload: headers plus
// payload, padded up to the Ethernet minimum.
func paddedLen(payload int) int {
	n := HeadersLen + payload
	if n < MinFrameLen {
		n = MinFrameLen
	}
	return n
}

// BuildUDP is wire.BuildUDP drawing its frame from the pool. fillUDP
// writes every byte of the frame, so pooled and fresh frames are
// byte-identical.
//
//lhlint:hotpath
func (p *FramePool) BuildUDP(src, dst Endpoint, ipID uint16, payload []byte) ([]byte, error) {
	if p == nil {
		return BuildUDP(src, dst, ipID, payload)
	}
	if len(payload) > MaxUDPPayload {
		return nil, errTooBig(len(payload))
	}
	f := p.get(paddedLen(len(payload)))
	fillUDP(f, src, dst, ipID, payload)
	return f, nil
}

// Clone returns a copy of frame drawn from the pool, owned under the
// same contract as a built frame. A nil pool allocates the copy.
//
//lhlint:hotpath
func (p *FramePool) Clone(frame []byte) []byte {
	if p == nil {
		return append([]byte(nil), frame...)
	}
	f := p.get(len(frame))
	copy(f, frame)
	return f
}

// get pops a buffer of length n with unspecified contents; callers
// overwrite all of it. A miss allocates at full frame capacity so the
// pool converges on buffers that fit every payload; a popped buffer too
// small for n (a foreign frame that migrated in) is dropped rather than
// retried.
//
//lhlint:hotpath
func (p *FramePool) get(n int) []byte {
	p.Gets++
	if last := len(p.free) - 1; last >= 0 {
		f := p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		if checkOwnership {
			delete(p.onFree, &f[:1][0])
		}
		if cap(f) >= n {
			p.Hits++
			return f[:n]
		}
	}
	return make([]byte, n, HeadersLen+MaxUDPPayload)
}

// Put returns a dead frame to the free list. See the ownership contract
// above: callers must be the frame's single terminal consumer.
//
//lhlint:hotpath
func (p *FramePool) Put(frame []byte) {
	if p == nil || cap(frame) < MinFrameLen {
		return
	}
	if checkOwnership {
		p.check(frame)
	}
	p.Puts++
	p.free = append(p.free, frame)
}

// check is Put's test-binary ownership check: panic on a double Put,
// then poison the returned bytes.
func (p *FramePool) check(frame []byte) {
	key := &frame[:1][0]
	if _, dup := p.onFree[key]; dup {
		panic("wire: FramePool.Put of a buffer already on the free list")
	}
	if p.onFree == nil {
		p.onFree = make(map[*byte]struct{})
	}
	p.onFree[key] = struct{}{}
	copy(frame, poisonBlock[:])
}

// Free reports how many buffers the free list currently holds.
func (p *FramePool) Free() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
