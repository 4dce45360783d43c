package obsort

import (
	"fmt"
	"strings"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
)

// Engine names accepted by Pick, Engine and the -sorter flags. The
// "randomized" engine lives in internal/core (it needs the §5 pipeline);
// callers that accept engine names resolve it themselves — Engine here
// covers the deterministic and bucket engines this package owns.
const (
	EngineAuto       = "auto"
	EngineRandomized = "randomized"
	EngineBitonic    = "bitonic"
	EngineBucket     = "bucket"
	EngineZigzag     = "zigzag"
)

// EngineNames lists the valid engine names in stable order.
func EngineNames() []string {
	return []string{EngineAuto, EngineRandomized, EngineBitonic, EngineBucket, EngineZigzag}
}

// ValidEngine reports whether name is a known engine name.
func ValidEngine(name string) bool {
	for _, n := range EngineNames() {
		if n == name {
			return true
		}
	}
	return false
}

// EngineNameError builds the rejection message for an unknown engine name.
func EngineNameError(name string) error {
	return fmt.Errorf("obsort: unknown sorter %q (valid: %s)", name, strings.Join(EngineNames(), ", "))
}

// Pick chooses a sorter engine for a workload: nBlocks blocks of b
// elements against a cache of m elements, free of them not checked out by
// the caller, over backend "mem" (local or in-process stores) or "net"
// (HTTP backends, where round trips dominate).
// It returns one of EngineBitonic, EngineBucket or EngineZigzag — the
// randomized sort is never picked; its constants lose to every
// deterministic engine at any feasible geometry (215 I/Os per block against
// bitonic's 14 at N = 2^16, B = 8, M = 4096).
//
// The rule: take the engine whose exact predictor — block I/Os over mem,
// vectored round trips over net — is least among the engines the geometry
// supports, preferring bitonic, then zigzag, on ties. Bitonic is priced at
// the free cache, which sizes its window; zigzag and bucket at M, which
// sizes their runs. Bitonic's packed passes close over ⌊log₂(free/B)⌋
// address bits each, so it wins wherever more than a few blocks are free;
// Zigzag wins where a pass would gather only a bit or two (M/B ≲ 16), and
// it is the only engine for a block size that is not a power of two;
// BucketSort's 3-pass asymptotics need log₂(N/M) to clear the bar first.
func Pick(nBlocks, b, m, free int, backend string) string {
	if nBlocks == 0 {
		return EngineBitonic
	}
	best, least := EngineZigzag, price(ZigzagCost(nBlocks, b, m), backend)
	if b&(b-1) == 0 && m >= 4*b && free >= 2*b {
		if c := price(BitonicCost(nBlocks, b, free), backend); c <= least {
			best, least = EngineBitonic, c
		}
	}
	if BucketSupported(nBlocks, b, m) && price(BucketCost(nBlocks, b, m), backend) < least {
		best = EngineBucket
	}
	return best
}

// price is the quantity Pick minimises over a backend: round trips over
// "net", block I/Os otherwise.
func price(c obs.Cost, backend string) int64 {
	if backend == "net" {
		return c.RoundTrips
	}
	return c.IOs
}

// Cost returns the exact block I/Os and vectored round trips the named
// engine spends sorting nBlocks blocks of b elements against a cache of m
// with free of it not checked out, and whether it has such a predictor:
// Bitonic, whose trace is a function of (nBlocks, B, free); Zigzag, whose
// trace is a function of (nBlocks, B, M) however much of the cache the
// caller holds; and auto, which resolves as Auto does.
func Cost(name string, nBlocks, b, m, free int) (obs.Cost, bool) {
	if name == EngineAuto {
		name = Pick(nBlocks, b, m, free, "mem")
	}
	switch name {
	case EngineBitonic:
		return BitonicCost(nBlocks, b, free), true
	case EngineZigzag:
		return ZigzagCost(nBlocks, b, m), true
	}
	return obs.Cost{}, false
}

// PickSorter resolves an engine name to a Sorter for the engines this
// package owns; EngineRandomized and EngineAuto must be resolved by the
// caller (internal/core owns the randomized pipeline, and auto needs the
// backend kind). Unknown names panic — validate with ValidEngine first.
func PickSorter(name string) Sorter {
	switch name {
	case EngineBitonic:
		return Bitonic
	case EngineBucket:
		return BucketSorter
	case EngineZigzag:
		return Zigzag
	}
	panic(fmt.Sprintf("obsort: no Sorter for engine %q", name))
}

// Auto is the self-selecting Sorter: each call runs Pick for the array's
// geometry and the cache free at the call over the "mem" cost model and
// dispatches. It is the default engine for ORAM rebuilds — the pick is
// public (geometry only), so the rebuild trace stays a deterministic
// function of (n, B, t, seed).
func Auto(env *extmem.Env, a extmem.Array, less Less) {
	PickSorter(Pick(a.Len(), a.B(), env.M, env.M-env.Cache.Used(), "mem"))(env, a, less)
}
