package rpc

import (
	"fmt"
	"sort"

	"lauberhorn/internal/sim"
)

// Handler is the application function invoked for a request. It receives
// the request body and returns the response body plus the simulated CPU
// time the handler itself consumes (the "service time"). Unmarshalling
// cost is charged separately by the receive path, because which component
// pays it is precisely the paper's point. req may alias the request
// frame, which the stack recycles once the response is encoded: a
// handler that keeps request bytes past its return must copy them.
type Handler func(req []byte) (resp []byte, serviceTime sim.Time)

// MethodDesc describes one callable method of a service.
type MethodDesc struct {
	ID      uint16
	Name    string
	Handler Handler
	// CodeAddr is the simulated virtual address of the handler's first
	// instruction; Lauberhorn returns it in the dispatch cache line so a
	// core can jump directly to the handler (paper §4: "just the arguments
	// and virtual address of the first instruction").
	CodeAddr uint64
	// DataAddr is the simulated data pointer delivered alongside.
	DataAddr uint64
}

// ServiceDesc describes one RPC service (one isolation domain / process).
type ServiceDesc struct {
	ID      uint32
	Name    string
	Methods []MethodDesc
}

// Method returns the method with the given ID, or nil.
func (s *ServiceDesc) Method(id uint16) *MethodDesc {
	for i := range s.Methods {
		if s.Methods[i].ID == id {
			return &s.Methods[i]
		}
	}
	return nil
}

// Registry maps service IDs to descriptors. The OS kernel owns one and,
// under Lauberhorn, pushes it to the NIC's endpoint table; under the other
// stacks it is consulted in software.
type Registry struct {
	services map[uint32]*ServiceDesc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{services: make(map[uint32]*ServiceDesc)}
}

// Register adds a service. It panics on duplicate IDs — service IDs are
// assigned centrally by the control plane, so a collision is a programming
// error.
func (r *Registry) Register(s *ServiceDesc) {
	if s == nil {
		panic("rpc: nil service")
	}
	if _, dup := r.services[s.ID]; dup {
		panic(fmt.Sprintf("rpc: duplicate service ID %d", s.ID))
	}
	r.services[s.ID] = s
}

// Lookup returns the service with the given ID, or nil.
func (r *Registry) Lookup(id uint32) *ServiceDesc { return r.services[id] }

// Services returns all registered services sorted by ID (deterministic
// iteration for the simulator).
func (r *Registry) Services() []*ServiceDesc {
	out := make([]*ServiceDesc, 0, len(r.services))
	for _, s := range r.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of registered services.
func (r *Registry) Len() int { return len(r.services) }

// CostModel captures the CPU cost of software (un)marshalling and dispatch,
// in simulated time. The traditional and bypass stacks pay these on the
// host; Lauberhorn's NIC pays an equivalent in pipeline stages instead.
//
// Defaults approximate published figures for protobuf-class codecs on a
// server core (fixed overhead plus per-byte cost).
type CostModel struct {
	// UnmarshalFixed/PerByte: decoding a request body in software.
	UnmarshalFixed   sim.Time
	UnmarshalPerByte sim.Time
	// MarshalFixed/PerByte: encoding a response body in software.
	MarshalFixed   sim.Time
	MarshalPerByte sim.Time
	// DispatchLookup: service/method table lookup plus indirect call.
	DispatchLookup sim.Time
}

// DefaultCostModel returns the costs used by the experiments: roughly a
// protobuf-style decoder at ~1 GB/s with ~200 ns fixed overhead (cf.
// Optimus Prime's software baselines).
func DefaultCostModel() CostModel {
	return CostModel{
		UnmarshalFixed:   200 * sim.Nanosecond,
		UnmarshalPerByte: 1 * sim.Nanosecond,
		MarshalFixed:     150 * sim.Nanosecond,
		MarshalPerByte:   1 * sim.Nanosecond,
		DispatchLookup:   60 * sim.Nanosecond,
	}
}

// Unmarshal returns the software cost of decoding n body bytes.
func (c CostModel) Unmarshal(n int) sim.Time {
	return c.UnmarshalFixed + sim.Time(n)*c.UnmarshalPerByte
}

// Marshal returns the software cost of encoding n body bytes.
func (c CostModel) Marshal(n int) sim.Time {
	return c.MarshalFixed + sim.Time(n)*c.MarshalPerByte
}
