package core

import "oblivext/internal/extmem"

// zeroArray overwrites every block of a with empty elements.
func zeroArray(env *extmem.Env, a extmem.Array) {
	env.Scan(extmem.Array{}, a, env.ScanBatchN(1, a.Len()), nil)
}

// copyArray copies src onto dst (equal lengths). The two may overlap where
// dst lies at or below src: Scan reads each chunk whole before writing it.
func copyArray(env *extmem.Env, src, dst extmem.Array) {
	env.Scan(src, dst, env.ScanBatchN(1, dst.Len()), nil)
}
