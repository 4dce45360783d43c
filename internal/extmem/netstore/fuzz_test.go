package netstore

import (
	"bytes"
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
//     decodeRequest bit-exactly (op, seq, namespace, addresses, payload) —
//     the replay-dedup key (namespace, seq) in particular survives the trip,
//     since a key that mutated in flight would suppress the wrong tenant's
//     journal entries.
func FuzzFrameDecode(f *testing.F) {
	// Seeds, on top of testdata/fuzz: a read on the default tenant (empty
	// namespace), a namespaced write, and a few deliberate near-misses
	// (truncations, bad magic, oversize namespace length).
	seed1, _ := encodeRequest(nil, opRead, 7, "", []int{0, 3}, 0)
	seed2, p := encodeRequest(nil, opWrite, 1<<40, "tenant-9", []int{5}, blockBytes)
	for i := range p {
		p[i] = byte(i)
	}
	seed3, _ := encodeRequest(nil, opRead, 2, "a", []int{}, 0)
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add(seed2[:len(seed2)-3]) // truncated payload
	f.Add([]byte("OBS3garbagegarbage"))
	f.Add(append([]byte("OBS2\x01"), bytes.Repeat([]byte{0xff}, 30)...)) // nsLen 255
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		op, seq, ns, addrs, payload, err := decodeRequest(body, blockBytes, nil)
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
		if op != opRead && op != opWrite {
			t.Fatalf("accepted unknown op %d", op)
		}
		if !ValidNamespace(ns) {
			t.Fatalf("accepted invalid namespace %q", ns)
		}
		if op == opWrite && len(payload) != len(addrs)*blockBytes {
			t.Fatalf("write payload %d bytes for %d blocks", len(payload), len(addrs))
		}
		for _, a := range addrs {
			if a < 0 {
				t.Fatalf("negative address %d", a)
			}
		}
		// Re-encoding an accepted frame reproduces it bit-exactly, so the
		// (namespace, seq) replay key and the address list cannot drift
		// between what a client sent and what the journal records.
		payloadLen := 0
		if op == opWrite {
			payloadLen = len(payload)
		}
		re, rp := encodeRequest(nil, op, seq, ns, addrs, payloadLen)
		copy(rp, payload)
		if !bytes.Equal(re, body) {
			t.Fatalf("round trip diverged:\n in  %x\n out %x", body, re)
		}
	})
}
