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
// over namespace lengths (none, one character, the maximum) × op × batch
// sizes, and that the largest batch MaxBatchBlocks allows, under the longest
// namespace, lands exactly within the wire cap: it fits, one more block would
// not.
func TestFrameRoundTrip(t *testing.T) {
	for _, ns := range []string{"", "a", strings.Repeat("n", MaxNamespaceLen)} {
		for _, op := range []byte{opRead, opWrite} {
			for _, addrs := range [][]int{{}, {7}, {1 << 30, 0, 3, 3, 12345}} {
				payloadLen := 0
				if op == opWrite {
					payloadLen = len(addrs) * blockBytes
				}
				seq := uint64(1)<<63 + uint64(len(addrs))
				body, payload := encodeRequest(nil, op, seq, ns, addrs, payloadLen)
				for i := range payload {
					payload[i] = byte(i)
				}
				gotOp, gotSeq, gotNS, gotAddrs, gotPayload, err := decodeRequest(body, blockBytes, nil)
				if err != nil {
					t.Fatalf("ns=%q op=%d addrs=%v: %v", ns, op, addrs, err)
				}
				if len(body) != headerLen+len(ns)+8*len(addrs)+payloadLen || gotOp != op || gotSeq != seq ||
					gotNS != ns || !slices.Equal(gotAddrs, addrs) || !bytes.Equal(gotPayload, payload) {
					t.Fatalf("ns=%q op=%d addrs=%v: %d-byte frame decoded as (%d, %d, %q, %v, %d payload bytes)",
						ns, op, addrs, len(body), gotOp, gotSeq, gotNS, gotAddrs, len(gotPayload))
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
		body, _ := encodeRequest(nil, opRead, 9, ns, make([]int, count), 0)
		return body
	}
	write2, _ := encodeRequest(nil, opWrite, 9, "", []int{0, 1}, 2*blockBytes)
	set := func(body []byte, off int, v byte) []byte { body[off] = v; return body }
	for _, r := range []struct {
		name string
		body []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"shorter than the fixed header", read("", 0)[:headerLen-1], "truncated"},
		{"bad magic", set(read("", 1), 3, '3'), "bad magic"},
		{"the retired OBS1 magic", set(read("", 1), 3, '1'), "bad magic"}, // real OBS1 frames: testdata/fuzz bad-magic-obs1-*
		{"namespace length over the maximum", set(read("ok", 1), nsLenOff, MaxNamespaceLen+1), "namespace length"},
		{"truncated inside the namespace", set(read("", 0), nsLenOff, 9), "truncated"},
		{"namespace outside the alphabet", set(read("ok", 1), nsLenOff+1, '/'), "invalid namespace"},
		{"count over the wire cap", binary.LittleEndian.AppendUint32(read("", 0)[:headerLen-4], maxBatchWire/8), "wire cap"},
		{"unknown op", set(read("", 1), 4, 3), "unknown op"},
		{"read with trailing bytes", append(read("t", 2), 0), "wants"},
		{"read shorter than its count", read("t", 2)[:headerLen+1+8], "wants"},
		{"write with a short payload", write2[:len(write2)-1], "wants"},
		{"address beyond the platform int", set(read("", 2), headerLen+15, 0x80), "out of range"},
	} {
		if _, _, _, _, _, err := decodeRequest(r.body, blockBytes, nil); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", r.name, err, r.want)
		}
	}
}
