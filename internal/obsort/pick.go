package obsort

import (
	"oblivext/internal/extmem"
	"oblivext/internal/obs"
)

// Engine names, as Config.Sorter and the -sorter flags take them. They are
// resolved in one place, core.Engine ("auto" becomes Pick's choice), and
// run by core.SortWith: the "randomized" engine lives in internal/core (it
// needs the §5 pipeline), the others in this package.
const (
	EngineAuto       = "auto"
	EngineRandomized = "randomized"
	EngineBitonic    = "bitonic"
	EngineZigzag     = "zigzag"
	EngineColumnsort = "columnsort"
)

// EngineNames lists the valid engine names in stable order.
func EngineNames() []string {
	return []string{EngineAuto, EngineRandomized, EngineBitonic, EngineColumnsort, EngineZigzag}
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
// It returns one of EngineBitonic, EngineColumnsort or EngineZigzag — the
// randomized sort is never picked: its exact predictor, core.SortCost, is
// nowhere below the cheapest of bitonic, columnsort and zigzag in block
// I/Os or in round trips (core's TestRandomizedNeverCheapest, over the
// geometries Pick is tested on).
//
// The rule: take the engine whose exact predictor — block I/Os over mem,
// vectored round trips over net — is strictly least among the engines the
// geometry supports; on a tie the earliest of bitonic, columnsort and
// zigzag keeps it. Every engine is priced at the free cache, which sizes
// bitonic's window, columnsort's columns and zigzag's runs. With fewer than
// two blocks free no engine fits, Pick returns bitonic, and core.SortWith
// declines the sort before any I/O. Columnsort costs 6 I/Os per block
// wherever ColumnGeometry admits the array and bitonic 2 per pass, so over
// mem columnsort wins where bitonic needs more than three passes (6 against
// 14 at N = 2^16, B = 8, M = 4096, in 100 round trips against 119); at
// three passes they tie and bitonic's fewer batches keep the sort, as at
// the ORAM's 64-block rebuild with M = 512. Bitonic's packed passes close
// over ⌊log₂(free/B)⌋ dimensions each, so it wins elsewhere wherever more
// than a few blocks are free. Over TestZigzagProbe's grid zigzag wins only
// in block I/Os and only where bitonic's window is two blocks (free < 4B),
// and it is the only engine for a block size that is not a power of two
// where columnsort's alignment fails.
func Pick(nBlocks, b, m, free int, backend string) string {
	if nBlocks == 0 || free < 2*b {
		return EngineBitonic
	}
	best, least := "", int64(0)
	consider := func(name string, c obs.Cost) {
		if p := price(c, backend); best == "" || p < least {
			best, least = name, p
		}
	}
	if b&(b-1) == 0 && m >= 4*b {
		consider(EngineBitonic, BitonicCost(nBlocks, b, free))
	}
	if _, _, err := ColumnGeometry(nBlocks, b, free); err == nil {
		consider(EngineColumnsort, ColumnCost(nBlocks, b, free))
	}
	consider(EngineZigzag, ZigzagCost(nBlocks, b, free))
	return best
}

// Deterministic sorts a in place by Element.Less with Lemma 2's
// deterministic sort, the one every algorithm that needs it as a
// subroutine calls: Columnsort where columnsDominate holds at the cache
// free at the call, Bitonic everywhere else, with Bitonic's requirements.
// Its trace, like either engine's, is a function of (len, B, free), and
// DeterministicCost is its exact price.
func Deterministic(env *extmem.Env, a extmem.Array) {
	DeterministicInto(env, a, a, nil, nil)
}

// DeterministicInto is Deterministic of src into dst, as long as src and
// possibly src itself: the engine's first pass reads src, and no pass
// writes it. Where first is not nil, that pass hands it every run of src's
// blocks it reads, each once and in address order, before sorting them:
// the caller learns what a scan of src would tell it without the scan.
// Where visit is not nil, the caller reads the sorted array once, through
// visit: its blocks in order, a run of whole blocks at a time with the
// index of the first, as Env.Scan hands chunks to its fn. Columnsort's last
// pass then hands visit its windows instead of writing them, and dst is
// scratch; bitonic sorts dst and one scan reads it back. The engine is the
// one columnsDominate picks at those prices, and DeterministicVisitCost is
// the call's exact price; first costs nothing.
func DeterministicInto(env *extmem.Env, src, dst extmem.Array, first func(chunk []extmem.Element), visit func(lo int, chunk []extmem.Element)) {
	n := dst.Len()
	if columnsDominate(n, dst.B(), env.M-env.Cache.Used(), visit != nil) {
		columnsort(env, src, dst, first, visit)
		return
	}
	bitonic(env, src, dst, first)
	if visit != nil {
		env.Scan(dst, extmem.Array{}, env.ScanBatchN(1, n), visit)
	}
}

// columnsDominate reports whether Deterministic sorts nBlocks blocks of
// b elements, free elements of the cache not checked out, with Columnsort:
// where ColumnGeometry admits the array and ColumnCost is no dearer than
// BitonicCost both in block I/Os and in round trips. Neither price alone
// decides, so no caller trades round trips for I/Os or the reverse: at
// B = 8, free = 4 096, columnsort takes 8 192 blocks (49 152 I/Os in 100
// round trips against 114 688 in 119), and bitonic keeps 1 024 (6 144 I/Os
// either way, 16 round trips against 9) and 2 048 (12 288 I/Os in 28
// against 16 384 in 20: neither dominates). With visit the prices are
// DeterministicInto's with a visitor: columnsort's last pass reads and
// does not write, and bitonic is followed by a scan.
func columnsDominate(nBlocks, b, free int, visit bool) bool {
	if _, _, ok := columnShape(nBlocks, b, free); !ok || nBlocks == 0 {
		return false
	}
	c, bt := columnCost(nBlocks, b, free, visit), bitonicVisitCost(nBlocks, b, free, visit)
	return c.IOs <= bt.IOs && c.RoundTrips <= bt.RoundTrips
}

// bitonicVisitCost is BitonicCost, and with visit the scan that reads the
// sorted array back.
func bitonicVisitCost(nBlocks, b, free int, visit bool) obs.Cost {
	c := BitonicCost(nBlocks, b, free)
	if visit {
		c = c.Add(obs.Cost{IOs: int64(nBlocks), RoundTrips: extmem.ScanRoundTrips(nBlocks, b, free, 1)})
	}
	return c
}

// DeterministicCost predicts the exact block I/Os and vectored round trips
// of one Deterministic call — or DeterministicInto without a visitor —
// entered with free elements of the cache not checked out: the price of the
// engine columnsDominate picks.
func DeterministicCost(nBlocks, b, free int) obs.Cost {
	return deterministicCost(nBlocks, b, free, false)
}

// DeterministicVisitCost predicts DeterministicInto with a visitor, entered
// with free elements of the cache not checked out: 5 I/Os per block in
// 3s+2 round trips where columnsort dominates at those prices, and
// otherwise BitonicCost and one scan.
func DeterministicVisitCost(nBlocks, b, free int) obs.Cost {
	return deterministicCost(nBlocks, b, free, true)
}

func deterministicCost(nBlocks, b, free int, visit bool) obs.Cost {
	if columnsDominate(nBlocks, b, free, visit) {
		return columnCost(nBlocks, b, free, visit)
	}
	return bitonicVisitCost(nBlocks, b, free, visit)
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
// engine spends sorting nBlocks blocks of b elements with free elements of
// cache not checked out, and whether it has such a predictor:
// Bitonic and Zigzag, whose traces are functions of (nBlocks, B, free);
// Columnsort, the same, where ColumnGeometry admits the array.
// name is a resolved engine (core.Engine).
func Cost(name string, nBlocks, b, free int) (obs.Cost, bool) {
	switch name {
	case EngineBitonic:
		return BitonicCost(nBlocks, b, free), true
	case EngineColumnsort:
		_, _, err := ColumnGeometry(nBlocks, b, free)
		return ColumnCost(nBlocks, b, free), err == nil
	case EngineZigzag:
		return ZigzagCost(nBlocks, b, free), true
	}
	return obs.Cost{}, false
}
