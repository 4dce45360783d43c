package oram_test

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
	"oblivext/internal/oram"
)

// The differential oracle for both arms: a plain map of where every key
// lives and what it holds, advanced by the public schedule alone, against
// what the disk holds — on the hierarchy, the tables after every rebuild;
// on the scan arm, the n blocks after every access. It asks nothing of how
// the ORAM gets there, so it pins a rewrite of either from the outside.

// oracleCases are the (B, M, n) the oracle and the rebuild tests run over.
// The scan is the arm at the first six: a single block, a size below the
// hierarchy's buffer, the benchmark's n = 32 at its cache of 64 blocks and
// at others, and one that is not a power of two. The hierarchy is the arm
// at the rest: at n = 64 first, at caches of 128 and 512 blocks; at a size
// that is not a power of two; at n = 256, whose largest rebuild sorts more
// than its cache holds and keeps what it does; and at n = 1 024, whose
// larger levels the network routes out of their tables and expands into
// them.
var oracleCases = [][3]int{
	{4, 128, 1}, {4, 128, 5}, {4, 128, 32}, {8, 512, 32}, {8, 512, 100}, {8, 4096, 32},
	{4, 512, 64}, {8, 1024, 64}, {8, 4096, 64}, {8, 4096, 100}, {8, 4096, 256}, {4, 2048, 1024},
}

// oracleSorters are the rebuild engines under test, by name.
var oracleSorters = []string{obsort.EngineBitonic, obsort.EngineAuto, obsort.EngineRandomized}

// model is the reference: for every key its freshest (ts, payload) and the
// place it lives — a level, or -1 for the private buffer.
type model struct {
	t    *testing.T
	o    *oram.ORAM
	env  *extmem.Env
	g    oram.Geometry
	n    int
	ts   []uint64
	data [][]uint64
	loc  []int
	live map[int]bool // levels the schedule says are live
	seen int64        // rebuilds accounted for
}

func newModel(t *testing.T, env *extmem.Env, n int, opts oram.Options) *model {
	t.Helper()
	o, err := oram.New(env, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := &model{t: t, o: o, env: env, g: o.Geometry(), n: n, live: map[int]bool{}}
	for i := 0; i < n; i++ {
		m.ts = append(m.ts, uint64(i))
		m.data = append(m.data, make([]uint64, m.g.B))
		m.loc = append(m.loc, m.g.LMax)
	}
	m.live[m.g.LMax] = true
	m.seen = o.Rebuilds().Count
	return m
}

// scheduledTarget is the level the flush ending at access count t rebuilds:
// the binary counter of rebuildOnSchedule, restated.
func (m *model) scheduledTarget() int {
	j := m.o.Accesses() / int64(m.g.BufCap)
	return min(m.g.L0+bits.TrailingZeros64(uint64(j))+1, m.g.LMax)
}

// step makes one access — a write of fresh words, a read, or a dummy — and
// advances the model; it reports whether the disk is due a check: on the
// scan arm after every access, on the hierarchy after a rebuild.
func (m *model) step(r *rand.Rand) bool {
	m.t.Helper()
	switch key := r.IntN(m.n); r.IntN(4) {
	case 0:
		if err := m.o.Dummy(); err != nil {
			m.t.Fatalf("dummy: %v", err)
		}
	case 1:
		got, err := m.o.Read(key)
		if err != nil {
			m.t.Fatalf("read %d: %v", key, err)
		}
		if !slices.Equal(got, m.data[key]) {
			m.t.Fatalf("read %d = %v, want %v", key, got, m.data[key])
		}
		m.ts[key], m.loc[key] = m.o.Stamp(), -1
	default:
		words := make([]uint64, m.g.B)
		for w := range words {
			words[w] = r.Uint64()
		}
		if err := m.o.Write(key, words); err != nil {
			m.t.Fatalf("write %d: %v", key, err)
		}
		m.ts[key], m.data[key], m.loc[key] = m.o.Stamp(), words, -1
	}
	if share := m.g.BufCap * m.g.B; m.env.Cache.Used() != share {
		m.t.Fatalf("cache holds %d elements after an access, want the buffer's %d", m.env.Cache.Used(), share)
	}
	if hw := m.env.Cache.HighWater(); hw > m.env.M {
		m.t.Fatalf("cache high-water %d > M = %d", hw, m.env.M)
	}
	if m.o.Arm() == oram.ArmScan {
		return true
	}
	if m.o.Rebuilds().Count == m.seen {
		return false
	}
	m.seen++
	target := m.scheduledTarget()
	for key := range m.loc {
		if m.loc[key] < target || target == m.g.LMax {
			m.loc[key] = target
		}
	}
	for l := m.g.L0 + 1; l < target; l++ {
		m.live[l] = false
	}
	m.live[target] = true
	return true
}

// check compares the disk with the model. On the scan arm block i holds
// key i's payload. On the hierarchy every key is live once, in the level
// the model has it in, with its freshest timestamp and payload, in the
// bucket the level's PRF assigns it, at most beta to a bucket.
func (m *model) check() {
	m.t.Helper()
	if m.o.Arm() == oram.ArmScan {
		for key, words := range m.o.DumpFlat() {
			if !slices.Equal(words, m.data[key]) {
				m.t.Fatalf("block %d holds %v, want %v", key, words, m.data[key])
			}
		}
		return
	}
	if m.o.Buffered() != 0 {
		m.t.Fatalf("%d entries left in the buffer after a rebuild", m.o.Buffered())
	}
	found := make([]bool, m.n)
	for l := m.g.L0 + 1; l <= m.g.LMax; l++ {
		if m.o.LevelLive(l) != m.live[l] {
			m.t.Fatalf("level %d live = %v, schedule says %v", l, m.o.LevelLive(l), m.live[l])
		}
		if !m.live[l] {
			continue
		}
		perBucket := map[int]int{}
		for _, e := range m.o.DumpLevel(l) {
			if e.Key < 0 || e.Key >= m.n {
				m.t.Fatalf("level %d slot %d holds key %d outside [0,%d)", l, e.Slot, e.Key, m.n)
			}
			if found[e.Key] {
				m.t.Fatalf("key %d is live twice (again at level %d slot %d)", e.Key, l, e.Slot)
			}
			found[e.Key] = true
			if m.loc[e.Key] != l {
				m.t.Fatalf("key %d at level %d, model has it at %d", e.Key, l, m.loc[e.Key])
			}
			if e.TS != m.ts[e.Key] || !slices.Equal(e.Words, m.data[e.Key]) {
				m.t.Fatalf("key %d at level %d: (ts %d, %v), want the freshest (ts %d, %v)",
					e.Key, l, e.TS, e.Words, m.ts[e.Key], m.data[e.Key])
			}
			if e.Slot/m.g.Beta != e.Bucket {
				m.t.Fatalf("key %d at level %d slot %d (bucket %d), PRF bucket %d",
					e.Key, l, e.Slot, e.Slot/m.g.Beta, e.Bucket)
			}
			if perBucket[e.Bucket]++; perBucket[e.Bucket] > m.g.Beta {
				m.t.Fatalf("level %d bucket %d holds more than beta = %d entries", l, e.Bucket, m.g.Beta)
			}
		}
	}
	for key, ok := range found {
		if !ok {
			m.t.Fatalf("key %d is live nowhere (model: level %d)", key, m.loc[key])
		}
	}
}

// TestRebuildDifferentialOracle drives seeded access sequences — writes,
// reads and dummies interleaved — and after the build and after every
// rebuild (every access, on the scan arm) holds the whole ORAM against the
// reference map. The grid takes both arms.
func TestRebuildDifferentialOracle(t *testing.T) {
	arms := map[string]int{}
	defer func() {
		if arms[oram.ArmScan] == 0 || arms[oram.ArmHierarchy] == 0 {
			t.Errorf("the grid made %d scans and %d hierarchies; it must make each", arms[oram.ArmScan], arms[oram.ArmHierarchy])
		}
	}()
	for _, c := range oracleCases {
		for _, sorter := range oracleSorters {
			b, mWords, n := c[0], c[1], c[2]
			t.Run(fmt.Sprintf("B=%d/M=%d/n=%d/%s", b, mWords, n, sorter), func(t *testing.T) {
				env := extmem.NewEnv(256, b, mWords, uint64(n)*31+uint64(mWords))
				m := newModel(t, env, n, oram.Options{Sorter: sorter})
				arms[m.o.Arm()]++
				m.check()
				r := rand.New(rand.NewPCG(uint64(n), uint64(b*mWords)))
				checks := 0
				for step := 0; step < max(3*n, 6*m.g.BufCap, 12); step++ {
					if m.step(r) {
						m.check()
						checks++
					}
				}
				if checks < 6 {
					t.Fatalf("only %d checks of the %s", checks, m.o.Arm())
				}
				if m.o.Failed() {
					t.Fatal("declared an overflow at the default bucket size")
				}
			})
		}
	}
}
