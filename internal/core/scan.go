package core

import "oblivext/internal/extmem"

// zeroArray overwrites every block of a with empty elements.
func zeroArray(env *extmem.Env, a extmem.Array) {
	env.Scan(extmem.Array{}, a, env.ScanBatchN(1, a.Len()), nil)
}
