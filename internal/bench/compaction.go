package bench

import (
	"math/rand/v2"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/iblt"
	"oblivext/internal/route"
	"oblivext/internal/workload"
)

// E1 measures Lemma 1: the success probability of IBLT listEntries as a
// function of the load factor m/n at k = 4 hash functions.
func E1() *Table {
	t := &Table{
		ID:      "E1",
		Title:   "IBLT listEntries success rate (Lemma 1: success w.p. 1-1/n^c at m = δkn)",
		Headers: []string{"n (pairs)", "m/n", "trials", "success %"},
	}
	for _, n := range []int{64, 256, 1024} {
		for _, load := range []float64{1.2, 1.5, 2, 3} {
			m := int(load * float64(n))
			const trials = 400
			okCount := 0
			for tr := 0; tr < trials; tr++ {
				tb := iblt.New(m, 4, 1, uint64(n*1000+tr))
				for i := 0; i < n; i++ {
					tb.Insert(uint64(i), []uint64{uint64(i)})
				}
				if _, ok := tb.ListEntries(); ok {
					okCount++
				}
			}
			t.Rows = append(t.Rows, []string{f("%d", n), f("%.1f", load), f("%d", trials),
				f("%.1f", 100*float64(okCount)/trials)})
		}
	}
	t.Notes = append(t.Notes, "Paper: success probability 1-1/n^c for m = δkn (δ,k ≥ 2). Shape check: success goes to 100% as m/n grows past the k=4 peeling threshold (~1.3) and improves with n.")
	return t
}

// E2 verifies Lemma 3: consolidation costs exactly ceil(N/B) reads and
// ceil(N/B) writes regardless of density.
func E2() *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Consolidation I/O (Lemma 3: exactly ⌈N/B⌉ reads + ⌈N/B⌉ writes)",
		Headers: []string{"blocks", "B", "marked %", "reads", "writes", "predicted"},
	}
	for _, n := range []int{256, 1024, 4096} {
		for _, pct := range []int{0, 25, 100} {
			env := newEnv(4*n, 8, 64, 7)
			a := fillUniform(env, n, n*8, uint64(n))
			if err := workload.MarkFraction(a, n*8*pct/100, 3); err != nil {
				panic(err)
			}
			env.D.ResetStats()
			route.Consolidate(env, a, extmem.Element.Marked)
			st := env.D.Stats()
			t.Rows = append(t.Rows, []string{f("%d", n), "8", f("%d", pct),
				f("%d", st.Reads), f("%d", st.Writes), f("%d+%d", n, n)})
		}
	}
	return t
}

// E3 measures Theorem 4: sparse tight compaction I/O scaling and success
// rate at r = n/log²n-style sparsity.
func E3() *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Sparse tight compaction (Theorem 4: O(n + r·log²r), success 1-1/r^c)",
		Headers: []string{"n (blocks)", "r (cap)", "I/O", "I/O per block", "trials", "success %"},
	}
	r := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{128, 512, 2048} {
		rCap := n / 16
		const trials = 25
		okCount := 0
		var lastIO int64
		for tr := 0; tr < trials; tr++ {
			env := newEnv(8*n, 8, 1<<18, uint64(n+tr))
			a := env.D.Alloc(n)
			buildOccupiedCells(a, r.Perm(n)[:rCap])
			env.D.ResetStats()
			_, _, err := core.CompactBlocksSparse(env, a, rCap, core.SparseParams{})
			lastIO = env.D.Stats().Total()
			if err == nil {
				okCount++
			}
		}
		t.Rows = append(t.Rows, []string{f("%d", n), f("%d", rCap), f("%d", lastIO),
			f("%.1f", float64(lastIO)/float64(n)), f("%d", trials), f("%.0f", 100*float64(okCount)/trials)})
	}
	t.Notes = append(t.Notes, "I/O per block should be flat (linear total): the k=4 cell touches dominate at 1 + 4k·2 ≈ 33 I/Os per input block plus table init and the order-restoring sort of the r-block output.")
	return t
}

// buildOccupiedCells writes full occupied blocks at the listed cells.
func buildOccupiedCells(a extmem.Array, occ []int) {
	b := a.B()
	isOcc := map[int]bool{}
	for _, j := range occ {
		isOcc[j] = true
	}
	buf := make([]extmem.Element, b)
	for j := 0; j < a.Len(); j++ {
		for t := 0; t < b; t++ {
			if isOcc[j] {
				buf[t] = extmem.Element{Key: uint64(j*1000 + t), Pos: uint64(j*b + t), Flags: extmem.FlagOccupied}
			} else {
				buf[t] = extmem.Element{}
			}
		}
		a.Write(j, buf)
	}
}

// E4 sweeps butterfly compaction over n and M/B, comparing the naive
// per-level network against the windowed variant (the ablation pair), and
// checking measured I/O against the closed-form pass count.
func E4() *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Butterfly tight compaction (Theorem 6: O((N/B)·log_{M/B}(N/B)) I/Os)",
		Headers: []string{"n (blocks)", "m=M/B", "naive I/O", "windowed I/O", "speedup", "predicted windowed"},
	}
	r := rand.New(rand.NewPCG(2, 2))
	for _, n := range []int{256, 1024, 4096} {
		for _, m := range []int{8, 32, 128} {
			run := func(lpp int) int64 {
				env := newEnv(2*n+16, 4, m*4, uint64(n))
				a := env.D.Alloc(n)
				buildOccupiedCells(a, r.Perm(n)[:n/3])
				env.D.ResetStats()
				route.CompactBlocksTight(env, a, route.PredOccupied, lpp)
				return env.D.Stats().Total()
			}
			naive, win := run(1), run(0)
			pred := int64(route.ButterflyPassCount(n, 0, m)) * int64(2*n)
			t.Rows = append(t.Rows, []string{f("%d", n), f("%d", m), f("%d", naive), f("%d", win),
				ratio(float64(naive), float64(win)), f("%d", pred)})
		}
	}
	t.Notes = append(t.Notes, "Windowed grouping divides the level count by ~log2(m/4); measured I/O must equal the predicted pass count exactly (deterministic network).")
	return t
}

// Fig1 reproduces the paper's Figure 1: the 7-occupied-cell butterfly
// instance with distance labels 2,3,3,6,8,8,9, rendered level by level.
func Fig1() *Table {
	t := &Table{
		ID:      "FIG1",
		Title:   "Figure 1 — butterfly-like compaction network, paper's example instance",
		Headers: []string{"level", "cells (occupied cells show remaining leftward distance)"},
	}
	labels := []int{2, 3, 3, 6, 8, 8, 9}
	n := 16
	// Occupied positions: rank k sits at position k + label(k).
	occ := map[int]int{} // position -> dest(rank)
	for k, d := range labels {
		occ[k+d] = k
	}
	render := func(pos map[int]int) string {
		var cells []string
		for j := 0; j < n; j++ {
			if dest, is := pos[j]; is {
				cells = append(cells, f("%d", j-dest))
			} else {
				cells = append(cells, "·")
			}
		}
		return "`" + joinCells(cells) + "`"
	}
	pos := occ
	t.Rows = append(t.Rows, []string{"L0", render(pos)})
	levels := 4 // ceil(log2 16)
	for i := 0; i < levels; i++ {
		next := map[int]int{}
		for j, dest := range pos {
			d := j - dest
			move := d % (1 << (i + 1))
			next[j-move] = dest
		}
		pos = next
		t.Rows = append(t.Rows, []string{f("L%d", i+1), render(pos)})
	}
	t.Notes = append(t.Notes,
		"Matches the paper's figure: labels 2,3,3,6,8,8,9 route left without collisions (Lemma 5); the implementation asserts collision-freeness at runtime on every instance.")
	return t
}

func joinCells(cells []string) string {
	out := ""
	for i, c := range cells {
		if i > 0 {
			out += " "
		}
		out += c
	}
	return out
}

// E5 measures Theorem 8: loose compaction uses O(N/B) I/Os — flat per-block
// cost across n — and compares against tight alternatives.
func E5() *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Loose compaction (Theorem 8: O(N/B) I/Os into 5R cells)",
		Headers: []string{"n (blocks)", "R", "loose I/O", "per block", "butterfly(tight) I/O", "loose/butterfly"},
	}
	r := rand.New(rand.NewPCG(3, 3))
	for _, n := range []int{512, 2048, 8192} {
		occ := r.Perm(n)[:n/8]
		env := newEnv(16*n, 8, 1024, uint64(n))
		a := env.D.Alloc(n)
		buildOccupiedCells(a, occ)
		env.D.ResetStats()
		if _, _, _, err := core.CompactBlocksLoose(env, a, n/4); err != nil {
			panic(err)
		}
		loose := env.D.Stats().Total()

		env2 := newEnv(16*n, 8, 1024, uint64(n))
		a2 := env2.D.Alloc(n)
		buildOccupiedCells(a2, occ)
		env2.D.ResetStats()
		route.CompactBlocksTight(env2, a2, route.PredOccupied, 0)
		tight := env2.D.Stats().Total()

		t.Rows = append(t.Rows, []string{f("%d", n), f("%d", n/8), f("%d", loose),
			f("%.1f", float64(loose)/float64(n)), f("%d", tight), ratio(float64(loose), float64(tight))})
	}
	t.Notes = append(t.Notes, "Loose per-block cost is flat (linear): zeroing C plus (1.5 + 2·c0)·Σs over the halving rounds, c0 = 2 at this M. The butterfly's grows with log(n)/log(m), so the loose/butterfly ratio falls as n grows; at these sizes the butterfly is still the cheaper one, which is why Sort compacts its buckets with it.")
	return t
}

// E6 measures Theorem 9: near-linear I/O with the log* phase structure.
func E6() *Table {
	t := &Table{
		ID:      "E6",
		Title:   "log*-round loose compaction (Theorem 9: O((N/B)·log*(N/B)) I/Os into 4.25R cells)",
		Headers: []string{"n (blocks)", "c0", "phases", "I/O", "per block"},
	}
	r := rand.New(rand.NewPCG(4, 4))
	for _, n := range []int{512, 2048, 8192} {
		for _, c0 := range []int{8, 23} { // default vs the paper's proof constant
			env := newEnv(32*n, 8, 2048, uint64(n))
			a := env.D.Alloc(n)
			buildOccupiedCells(a, r.Perm(n)[:n/8])
			env.D.ResetStats()
			_, _, phases, err := core.CompactBlocksLogStar(env, a, n/4, core.LogStarParams{C0: c0})
			if err != nil {
				panic(err)
			}
			io := env.D.Stats().Total()
			t.Rows = append(t.Rows, []string{f("%d", n), f("%d", c0), f("%d", phases),
				f("%d", io), f("%.1f", float64(io)/float64(n))})
		}
	}
	t.Notes = append(t.Notes, "The tower-of-twos collapses at practical scale (phases = 0 for n ≤ 2^32), so cost is c0·4 thinning I/Os per block plus the final compaction — the log* behaviour. The paper's c0 = 23 roughly triples the constant, as predicted.")
	return t
}

// E12 measures Lemma 7's engine: survivor counts decay geometrically with
// thinning passes (expectation factor <= 1/4 per pass).
func E12() *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Thinning-pass survivor decay (Lemma 7 / Lemma 24: ≤ 1/4 per pass in expectation)",
		Headers: []string{"pass", "survivors (of 256)", "fraction of previous"},
	}
	env := newEnv(1<<14, 4, 256, 21)
	n, rCap := 1024, 256
	a := env.D.Alloc(n)
	r := rand.New(rand.NewPCG(8, 8))
	buildOccupiedCells(a, r.Perm(n)[:rCap])
	c := env.D.Alloc(4 * rCap)
	zero := make([]extmem.Element, 4)
	for i := 0; i < c.Len(); i++ {
		c.Write(i, zero)
	}
	prev := rCap
	for pass := 1; pass <= 6; pass++ {
		core.ThinningPassForTest(env, a, c)
		surv := 0
		buf := make([]extmem.Element, 4)
		for i := 0; i < n; i++ {
			a.Read(i, buf)
			if route.PredOccupied(buf) {
				surv++
			}
		}
		t.Rows = append(t.Rows, []string{f("%d", pass), f("%d", surv), ratio(float64(surv), float64(prev))})
		prev = surv
		if surv == 0 {
			break
		}
	}
	return t
}
