// Adversary: Bob's-eye view. This example runs the same computations on
// two *very* different datasets with the same random tape and diffs the
// access traces — the oblivious algorithms' traces are bit-identical,
// while a classic (non-oblivious) selection visibly changes with the data,
// which is exactly the side channel (Chen et al., cited in the paper's
// intro) that motivates data-oblivious algorithms.
package main

import (
	"fmt"
	"math/rand/v2"

	"oblivext/internal/core"
	"oblivext/internal/emsort"
	"oblivext/internal/extmem"
	"oblivext/internal/trace"
	"oblivext/internal/workload"
)

func main() {
	r := rand.New(rand.NewPCG(10, 20))
	uniform := make([]uint64, 2048)
	for i := range uniform {
		uniform[i] = r.Uint64()
	}
	allEqual := make([]uint64, 2048)
	for i := range allEqual {
		allEqual[i] = 12345
	}
	type ds struct {
		name string
		keys []uint64
	}
	datasets := []ds{{"uniform keys", uniform}, {"identical keys", allEqual}}

	obliviousSort := func(env *extmem.Env, a extmem.Array) {
		if err := core.Sort(env, a); err != nil {
			panic(err)
		}
	}
	obliviousSelect := func(env *extmem.Env, a extmem.Array) {
		if _, err := core.Select(env, a, 1024); err != nil {
			panic(err)
		}
	}
	leakySelect := func(env *extmem.Env, a extmem.Array) {
		if _, err := emsort.QuickSelect(env, a, 1024); err != nil {
			panic(err)
		}
	}

	for _, alg := range []struct {
		name string
		fn   func(*extmem.Env, extmem.Array)
	}{
		{"oblivious sort (Theorem 21)", obliviousSort},
		{"oblivious selection (Theorem 13)", obliviousSelect},
		{"NON-oblivious quickselect (baseline)", leakySelect},
	} {
		fmt.Printf("== %s ==\n", alg.name)
		var sums []trace.Summary
		for _, d := range datasets {
			env := extmem.NewEnv(8192, 8, 256, 777) // same seed every run
			rec := trace.NewRecorder(0)
			env.D.SetRecorder(rec)
			a := env.D.Alloc(len(d.keys) / 8)
			if err := workload.Fill(a, d.keys); err != nil {
				panic(err)
			}
			alg.fn(env, a)
			s := rec.Summarize()
			sums = append(sums, s)
			fmt.Printf("  %-16s trace: len=%-8d hash=%016x\n", d.name, s.Len, s.Hash)
		}
		if sums[0].Equal(sums[1]) {
			fmt.Println("  -> identical traces: Bob learns nothing from watching")
		} else {
			fmt.Println("  -> traces differ: the access pattern fingerprints the data")
		}
		fmt.Println()
	}
}
