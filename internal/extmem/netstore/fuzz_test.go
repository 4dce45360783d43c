package netstore

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzFrameDecode throws arbitrary bytes at the wire-frame parser — the one
// piece of the server that runs on fully attacker-controlled input before
// any validation — and checks the properties the service mode leans on:
//
//   - decodeRequest never panics, never allocates past the frame's own
//     claims, and only ever returns namespaces ValidNamespace accepts;
//   - readFrame, the server's read of a body into reused storage, returns a
//     frame's bytes verbatim and accepts every frame decodeRequest does;
//   - every frame encodeRequest can produce round-trips through
//     decodeRequest bit-exactly (seq, namespace, both address lists,
//     payload) — the replay-dedup key (namespace, seq) in particular
//     survives the trip, since a key that mutated in flight would suppress
//     the wrong tenant's journal entries.
func FuzzFrameDecode(f *testing.F) {
	// Seeds, on top of testdata/fuzz: a read-only request on the default
	// tenant (empty namespace), a namespaced write-only one, one with both
	// parts, and a few deliberate near-misses (truncations, bad magic,
	// oversize namespace length, a count past the wire cap).
	readOnly, _ := encodeRequest(nil, 7, "", nil, []int{0, 3}, 0)
	writeOnly, p := encodeRequest(nil, 1<<40, "tenant-9", []int{5}, nil, blockBytes)
	for i := range p {
		p[i] = byte(i)
	}
	both, p := encodeRequest(nil, 3, "t", []int{2, 9}, []int{9, 4, 4}, 2*blockBytes)
	for i := range p {
		p[i] = byte(3 * i)
	}
	empty, _ := encodeRequest(nil, 2, "a", nil, nil, 0)
	f.Add(readOnly)
	f.Add(writeOnly)
	f.Add(both)
	f.Add(empty)
	hdr := headerLen + 1                          // both's and empty's one-byte namespace
	f.Add(writeOnly[:len(writeOnly)-3])           // truncated payload
	f.Add(both[:hdr+2*8])                         // truncated between the parts
	f.Add(both[:hdr+5*8])                         // truncated before the payload
	for _, off := range []int{hdr - 8, hdr - 4} { // the write, then the read count past the wire cap
		over := slices.Clone(empty)
		binary.LittleEndian.PutUint32(over[off:], maxBatchWire/8)
		f.Add(over)
	}
	f.Add([]byte("OBS4garbagegarbage"))
	f.Add(append([]byte("OBS3"), bytes.Repeat([]byte{0xff}, 30)...)) // nsLen 255
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := decodeRequest(body, blockBytes, nil)
		// The server's read path takes exactly the frame's bytes off
		// the wire, its length declared or not, and refuses no frame
		// decodeRequest accepts.
		for _, declared := range []int64{int64(len(body)), -1} {
			got, rerr := readFrame(bytes.NewReader(body), declared, blockBytes, nil)
			if rerr == nil && !bytes.Equal(got, body) {
				t.Fatalf("readFrame (declared %d) returned %x for %x", declared, got, body)
			}
			if rerr != nil && err == nil {
				t.Fatalf("readFrame (declared %d) refused a frame decodeRequest accepts: %v", declared, rerr)
			}
		}
		if err != nil {
			return
		}
		// Accepted frames obey the protocol's own invariants.
		if !ValidNamespace(q.ns) {
			t.Fatalf("accepted invalid namespace %q", q.ns)
		}
		if len(q.payload) != q.nw*blockBytes {
			t.Fatalf("write payload %d bytes for %d blocks", len(q.payload), q.nw)
		}
		for _, a := range q.addrs {
			if a < 0 {
				t.Fatalf("negative address %d", a)
			}
		}
		// Re-encoding an accepted frame reproduces it bit-exactly, so the
		// (namespace, seq) replay key and the address lists cannot drift
		// between what a client sent and what the journal records.
		re, rp := encodeRequest(nil, q.seq, q.ns, q.wAddrs(), q.rAddrs(), len(q.payload))
		copy(rp, q.payload)
		if !bytes.Equal(re, body) {
			t.Fatalf("round trip diverged:\n in  %x\n out %x", body, re)
		}
	})
}
