package netstore

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"oblivext/internal/extmem"
)

// blockBytes frames the tests' writes: blocks of four elements.
const blockBytes = 4 * extmem.ElementBytes

// TestFrameRoundTrip checks decodeRequest(encodeRequest(...)) is the identity
// over namespace lengths (none, one character, the maximum) × write parts ×
// read parts, and that the largest request MaxBatchBlocks allows, under the
// longest namespace, lands exactly within the wire cap: it fits, one more
// block would not.
func TestFrameRoundTrip(t *testing.T) {
	parts := [][]int{{}, {7}, {1 << 30, 0, 3, 3, 12345}}
	for _, ns := range []string{"", "a", strings.Repeat("n", MaxNamespaceLen)} {
		for _, w := range parts {
			for _, r := range parts {
				payloadLen := len(w) * blockBytes
				seq := uint64(1)<<63 + uint64(len(w)<<8+len(r))
				body, payload := encodeRequest(nil, seq, ns, w, r, payloadLen)
				for i := range payload {
					payload[i] = byte(i)
				}
				q, err := decodeRequest(body, blockBytes, nil)
				if err != nil {
					t.Fatalf("ns=%q w=%v r=%v: %v", ns, w, r, err)
				}
				if len(body) != headerLen+len(ns)+8*(len(w)+len(r))+payloadLen || q.seq != seq || q.ns != ns ||
					!slices.Equal(q.wAddrs(), w) || !slices.Equal(q.rAddrs(), r) || !bytes.Equal(q.payload, payload) {
					t.Fatalf("ns=%q w=%v r=%v: %d-byte frame decoded as (%d, %q, %v, %v, %d payload bytes)",
						ns, w, r, len(body), q.seq, q.ns, q.wAddrs(), q.rAddrs(), len(q.payload))
				}
			}
		}
	}
	most := (&Client{blockBytes: blockBytes}).MaxBatchBlocks()
	frame := func(blocks int) int { return headerLen + MaxNamespaceLen + blocks*(8+blockBytes) }
	if frame(most) > maxBatchWire || frame(most+1) <= maxBatchWire {
		t.Fatalf("MaxBatchBlocks() = %d: that frame is %d bytes, one more block %d, cap %d",
			most, frame(most), frame(most+1), maxBatchWire)
	}
}

// TestFrameRejects has one row per way decodeRequest refuses a hostile
// frame; each is a valid frame with one field broken.
func TestFrameRejects(t *testing.T) {
	read := func(ns string, count int) []byte {
		body, _ := encodeRequest(nil, 9, ns, nil, make([]int, count), 0)
		return body
	}
	write2, _ := encodeRequest(nil, 9, "", []int{0, 1}, nil, 2*blockBytes)
	both, _ := encodeRequest(nil, 9, "", []int{0}, []int{1, 2}, blockBytes)
	set := func(body []byte, off int, v byte) []byte { body[off] = v; return body }
	count := func(body []byte, off int, v uint32) []byte { binary.LittleEndian.PutUint32(body[off:], v); return body }
	for _, r := range []struct {
		name string
		body []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"shorter than the fixed header", read("", 0)[:headerLen-1], "truncated"},
		{"bad magic", set(read("", 1), 3, '4'), "bad magic"},
		{"the retired OBS2 magic", set(read("", 1), 3, '2'), "bad magic"}, // real OBS2 frames: testdata/fuzz obs2-*
		{"the retired OBS1 magic", set(read("", 1), 3, '1'), "bad magic"}, // real OBS1 frames: testdata/fuzz bad-magic-obs1-*
		{"namespace length over the maximum", set(read("ok", 1), nsLenOff, MaxNamespaceLen+1), "namespace length"},
		{"truncated inside the namespace", set(read("", 0), nsLenOff, 9), "truncated"},
		{"namespace outside the alphabet", set(read("ok", 1), nsLenOff+1, '/'), "invalid namespace"},
		{"write count over the wire cap", count(read("", 0), headerLen-8, maxBatchWire/8), "wire cap"},
		{"read count over the wire cap", count(read("", 0), headerLen-4, maxBatchWire/8), "wire cap"},
		{"read with trailing bytes", append(read("t", 2), 0), "wants"},
		{"read shorter than its count", read("t", 2)[:headerLen+1+8], "wants"},
		{"write with a short payload", write2[:len(write2)-1], "wants"},
		{"truncated between the parts", both[:headerLen+8], "wants"},
		{"truncated before the payload", both[:headerLen+3*8], "wants"},
		{"address beyond the platform int", set(read("", 2), headerLen+15, 0x80), "out of range"},
	} {
		if _, err := decodeRequest(r.body, blockBytes, nil); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", r.name, err, r.want)
		}
	}
}
