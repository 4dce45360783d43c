package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Fingerprint is a compact digest of one span's normalized access trace:
// the number of block accesses folded in and their running FNV-1a hash.
// Two spans with the same audit key must produce the same fingerprint — the
// obliviousness property, stated per phase.
type Fingerprint struct {
	Len  int64  `json:"len"`
	Hash uint64 `json:"hash"`
}

// Violation records one observed divergence from the golden fingerprint.
type Violation struct {
	Key    string      `json:"key"`
	Want   Fingerprint `json:"want"`
	Got    Fingerprint `json:"got"`
	Repeat int64       `json:"repeat"` // how many times this key diverged
}

func (v Violation) String() string {
	return fmt.Sprintf("audit violation for %q: trace fingerprint %016x/%d, golden %016x/%d",
		v.Key, v.Got.Hash, v.Got.Len, v.Want.Hash, v.Want.Len)
}

// Auditor is the live obliviousness monitor: audited spans report their
// trace fingerprints keyed by operation geometry (op, engine, n, B, M,
// placement), and the auditor compares each against the golden fingerprint
// recorded for that key. In learn mode the first observation of a key
// becomes golden; in enforce mode an unknown key is itself a violation.
//
// The property this monitors is exactly what the e2e adversary tests pin
// offline: for a data-oblivious algorithm the (normalized) access trace is
// a function of public geometry and the seed only, so replaying the same
// operation must replay the same fingerprint — any divergence means the
// access pattern depends on something it must not.
//
// An Auditor is safe for concurrent use (multiple collectors may share
// one), though a single collector drives it from one goroutine.
type Auditor struct {
	mu         sync.Mutex
	learn      bool
	golden     map[string]Fingerprint
	violations map[string]*Violation
	order      []string // violation keys, first-seen order
	observed   int64
	matched    int64
	// OnViolation, when set, is called (outside the lock) on every
	// divergence — the loud-flagging hook; cmd/obsort points it at stderr.
	OnViolation func(Violation)
}

// NewAuditor returns an auditor. With learn true, the first fingerprint
// seen for each key is recorded as golden; with learn false, every key must
// already be present (via LoadJSON or SetGolden) or its observation counts
// as a violation.
func NewAuditor(learn bool) *Auditor {
	return &Auditor{
		learn:      learn,
		golden:     make(map[string]Fingerprint),
		violations: make(map[string]*Violation),
	}
}

// SetGolden installs (or overwrites) the golden fingerprint for a key.
func (a *Auditor) SetGolden(key string, fp Fingerprint) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.golden[key] = fp
}

// Golden returns the golden fingerprint for a key, if recorded.
func (a *Auditor) Golden(key string) (Fingerprint, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fp, ok := a.golden[key]
	return fp, ok
}

// Observe compares one span's fingerprint against the golden one for its
// key, recording (and flagging) a violation on divergence.
func (a *Auditor) Observe(key string, fp Fingerprint) {
	a.mu.Lock()
	a.observed++
	want, ok := a.golden[key]
	if !ok && a.learn {
		a.golden[key] = fp
		a.matched++
		a.mu.Unlock()
		return
	}
	if ok && want == fp {
		a.matched++
		a.mu.Unlock()
		return
	}
	v, seen := a.violations[key]
	if seen {
		v.Repeat++
		v.Got = fp
	} else {
		v = &Violation{Key: key, Want: want, Got: fp, Repeat: 1}
		a.violations[key] = v
		a.order = append(a.order, key)
	}
	out := *v
	cb := a.OnViolation
	a.mu.Unlock()
	if cb != nil {
		cb(out)
	}
}

// Violations returns every recorded divergence, in first-seen order.
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, 0, len(a.order))
	for _, k := range a.order {
		out = append(out, *a.violations[k])
	}
	return out
}

// Stats returns (spans observed, spans matched, distinct violated keys).
func (a *Auditor) Stats() (observed, matched int64, violated int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.observed, a.matched, len(a.violations)
}

// goldenFile is the on-disk golden-fingerprint format: a versioned map so
// future normalization changes can invalidate stale files explicitly.
type goldenFile struct {
	Version int                    `json:"version"`
	Golden  map[string]Fingerprint `json:"golden"`
}

const goldenVersion = 1

// SaveJSON writes the golden fingerprints (keys sorted for stable diffs).
func (a *Auditor) SaveJSON(w io.Writer) error {
	a.mu.Lock()
	g := make(map[string]Fingerprint, len(a.golden))
	for k, v := range a.golden {
		g[k] = v
	}
	a.mu.Unlock()
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := goldenFile{Version: goldenVersion, Golden: make(map[string]Fingerprint, len(g))}
	for _, k := range keys {
		ordered.Golden[k] = g[k]
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&ordered)
}

// LoadJSON merges golden fingerprints from a prior SaveJSON.
func (a *Auditor) LoadJSON(r io.Reader) error {
	var gf goldenFile
	if err := json.NewDecoder(r).Decode(&gf); err != nil {
		return fmt.Errorf("obs: decoding golden fingerprints: %w", err)
	}
	if gf.Version != goldenVersion {
		return fmt.Errorf("obs: golden fingerprint file version %d, want %d (re-record)", gf.Version, goldenVersion)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for k, v := range gf.Golden {
		a.golden[k] = v
	}
	return nil
}

// SaveFile and LoadFile are the path-based conveniences cmd/obsort uses.
func (a *Auditor) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.SaveJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (a *Auditor) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return a.LoadJSON(f)
}
