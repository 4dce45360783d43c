package obsort

import "oblivext/internal/obs"

// Engine names, as Config.Sorter and the -sorter flags take them. They are
// resolved in one place, core.Engine ("auto" becomes Pick's choice), and
// run by core.SortWith: the "randomized" engine lives in internal/core (it
// needs the §5 pipeline), the others in this package.
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

// Pick chooses a sorter engine for a workload: nBlocks blocks of b
// elements against a cache of m elements, free of them not checked out by
// the caller, over backend "mem" (local or in-process stores) or "net"
// (HTTP backends, where round trips dominate).
// It returns one of EngineBitonic, EngineBucket or EngineZigzag — the
// randomized sort is never picked; its constants lose to every
// deterministic engine at any feasible geometry (74.3 I/Os per block
// against bitonic's 14 at N = 2^16, B = 8, M = 4096).
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
// caller holds. name is a resolved engine (core.Engine).
func Cost(name string, nBlocks, b, m, free int) (obs.Cost, bool) {
	switch name {
	case EngineBitonic:
		return BitonicCost(nBlocks, b, free), true
	case EngineZigzag:
		return ZigzagCost(nBlocks, b, m), true
	}
	return obs.Cost{}, false
}
