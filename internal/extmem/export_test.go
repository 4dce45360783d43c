package extmem

// NewMemStorePer returns NewMemStore(n, b) with per blocks a segment in
// place of memSegElems/b, so that a small store spans several segments.
func NewMemStorePer(n, b, per int) *MemStore {
	s := &MemStore{b: b, per: per}
	s.GrowTo(n)
	return s
}
