package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/transport"
)

// transportOverride is the package-wide transport-scheme override behind
// the harness -transport flag: raw (the zero value, no transport) leaves every universe byte-identical to
// the pre-transport wiring; any other registered scheme interposes one
// instance per machine endpoint of every cluster experiment. e21 and e22
// sweep the transport matrix themselves, so they ignore the override —
// it exists to re-run the *other* cluster experiments under a scheme
// (lhbench -run e15 -transport credit) without touching their specs.
//
// Set it once, before handing experiments to a Runner: the runner's
// goroutine-creation happens-before edge is the only synchronization.
var transportOverride transport.Kind

// SetTransport installs the global transport override (transport.Raw =
// none). Call before running experiments; see transportOverride for the
// memory-model contract.
func SetTransport(k transport.Kind) { transportOverride = k }

// Transport reports the current override.
func Transport() transport.Kind { return transportOverride }

// applyTransport arms a spec with the global override. Specs that pick a
// scheme explicitly (the e21/e22 matrices) are left alone, so the
// override composes with, rather than fights, the transport experiments.
func applyTransport(sp *cluster.Spec) {
	if sp.Transport == transport.Raw {
		sp.Transport = transportOverride
	}
}
