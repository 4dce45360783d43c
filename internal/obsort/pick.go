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
	EngineColumnsort = "columnsort"
)

// EngineNames lists the valid engine names in stable order.
func EngineNames() []string {
	return []string{EngineAuto, EngineRandomized, EngineBitonic, EngineColumnsort, EngineBucket, EngineZigzag}
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
// It returns one of EngineBitonic, EngineColumnsort, EngineBucket or
// EngineZigzag — the randomized sort is never picked: its exact predictor,
// core.SortCost, is nowhere below the cheapest of bitonic, columnsort and
// zigzag in block I/Os or in round trips (core's
// TestRandomizedNeverCheapest, over the geometries Pick is tested on).
//
// The rule: take the engine whose exact predictor — block I/Os over mem,
// vectored round trips over net — is strictly least among the engines the
// geometry supports; on a tie the earliest of bitonic, columnsort, zigzag
// and bucket keeps it. Bitonic and columnsort are priced at the free cache,
// which sizes bitonic's window and columnsort's columns; zigzag and bucket
// at M, which sizes their runs. Columnsort costs 6 I/Os per block wherever
// ColumnGeometry admits the array and bitonic 2 per pass plus its padding,
// so over mem columnsort wins where bitonic needs more than three passes
// or pads (6 against 14 at N = 2^16, B = 8, M = 4096, in 193 round trips
// against 224); at three passes over a power of two they tie and bitonic's
// fewer batches keep the sort, as at the ORAM's 64-block rebuild with
// M = 512. Bitonic's packed passes close over ⌊log₂(free/B)⌋ address bits
// each, so it wins elsewhere wherever more than a few blocks are free;
// Zigzag wins where a pass would gather only a bit or two (M/B ≲ 16), and
// it is the only engine for a block size that is not a power of two where
// columnsort's alignment fails; BucketSort's 3-pass asymptotics need
// log₂(N/M) to clear the bar first.
func Pick(nBlocks, b, m, free int, backend string) string {
	if nBlocks == 0 {
		return EngineBitonic
	}
	best, least := "", int64(0)
	consider := func(name string, c obs.Cost) {
		if p := price(c, backend); best == "" || p < least {
			best, least = name, p
		}
	}
	if b&(b-1) == 0 && m >= 4*b && free >= 2*b {
		consider(EngineBitonic, BitonicCost(nBlocks, b, free))
	}
	if _, _, err := ColumnGeometry(nBlocks, b, free); err == nil {
		consider(EngineColumnsort, ColumnCost(nBlocks, b, free))
	}
	consider(EngineZigzag, ZigzagCost(nBlocks, b, m))
	if BucketSupported(nBlocks, b, m) {
		consider(EngineBucket, BucketCost(nBlocks, b, m))
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
// Bitonic, whose trace is a function of (nBlocks, B, free); Columnsort, the
// same, where ColumnGeometry admits the array; Zigzag, whose trace is a
// function of (nBlocks, B, M) however much of the cache the caller holds.
// name is a resolved engine (core.Engine).
func Cost(name string, nBlocks, b, m, free int) (obs.Cost, bool) {
	switch name {
	case EngineBitonic:
		return BitonicCost(nBlocks, b, free), true
	case EngineColumnsort:
		_, _, err := ColumnGeometry(nBlocks, b, free)
		return ColumnCost(nBlocks, b, free), err == nil
	case EngineZigzag:
		return ZigzagCost(nBlocks, b, m), true
	}
	return obs.Cost{}, false
}
