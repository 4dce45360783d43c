// Package netstore is a real remote Bob: an HTTP BlockStore client and the
// matching storage server, speaking a batched binary protocol in which one
// Transfer — the only data call a BlockStore has, a batch of writes then a
// batch of reads — is exactly one request, so the round-trip accounting the
// Disk layer keeps (one RoundTrip per store call, a one-block Read or
// Write included) stays honest when the store is an actual process across
// a network.
//
// The server side independently journals the per-block access sequence it
// observes, which is precisely the adversary's view in the paper's model
// (§1): Bob sees the sequence and location of every block Alice touches but
// none of the contents. The end-to-end obliviousness tests compare this
// server-side journal — not the client's own bookkeeping — across inputs.
//
// Faults: requests are idempotent (reads are pure; writes are whole-block
// last-writer-wins), so the client replays a request whose response was lost
// or late. Every retry carries the same request id, and the server suppresses
// journal entries for replays of requests it already executed, keeping the
// journaled logical trace identical whether or not the network misbehaved;
// a replay's write part is not applied again, and its read part is re-run.
package netstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Endpoint paths. The data plane is a single endpoint taking the binary
// request below; the control plane (geometry, growth, trace auditing) is
// small JSON.
const (
	ioPath         = "/v1/io"
	infoPath       = "/v1/info"
	growPath       = "/v1/grow"
	tracePath      = "/v1/trace"
	traceResetPath = "/v1/trace/reset"
	namespacesPath = "/v1/namespaces"
	metricsPath    = "/metrics"
	healthzPath    = "/healthz"
	readyzPath     = "/readyz"
)

// nsParam is the query parameter naming the tenant on the control-plane
// endpoints (info, grow, trace, trace reset); absent or empty selects the
// default tenant, as a zero-length namespace does on the data plane.
const nsParam = "ns"

// replayHeader is set to "1" on a data-plane response the server answered
// from its replay-suppression window instead of executing, so the client
// can count observed replay hits (Stats.ReplayHits).
const replayHeader = "X-Obstore-Replay"

// retryAfterMSHeader accompanies the standard Retry-After header on a 503
// (graceful drain) with millisecond precision: Retry-After is integer
// seconds, far coarser than a drain that lasts a few hundred milliseconds.
// Clients prefer this header when present and fall back to Retry-After.
const retryAfterMSHeader = "X-Obstore-Retry-After-Ms"

// Wire format of one ioPath request body (integers little-endian):
//
//	magic   4 bytes  "OBS3"
//	seq     8 bytes  client-assigned request id, shared by every retry
//	nsLen   1 byte   namespace length, 0..MaxNamespaceLen
//	ns      nsLen bytes of [a-zA-Z0-9._-]
//	wCount  4 bytes  blocks written
//	rCount  4 bytes  blocks read
//	wAddrs  wCount × 8 bytes
//	rAddrs  rCount × 8 bytes
//	payload wCount × B × ElementBytes   (the blocks written)
//
// One frame is one Transfer: the server applies the writes, then serves the
// reads, so a block in both lists reads back what the frame wrote. Either
// count may be zero: a read-only or write-only request is the same frame.
//
// The namespace names the tenant the request operates on — zero length is
// the default tenant: each namespace is its own block address space with
// its own journal and its own replay-suppression window, so the replay key
// is (namespace, seq) — request ids from different sessions can never
// suppress each other's journal entries.
//
// A response body is the blocks read alone (rCount × B × ElementBytes),
// empty for a write-only request. Errors are non-200 statuses with a
// plain-text message; 5xx are transient (the client retries), 4xx are
// permanent.
const (
	magic        = "OBS3"
	nsLenOff     = 4 + 8
	headerLen    = nsLenOff + 1 + 4 + 4 // the fixed fields; the namespace's bytes come on top
	maxBatchWire = 1 << 28              // 256 MiB cap on a request body
)

// MaxNamespaceLen bounds the length of a namespace name on the wire (the
// frame carries it in one byte, and journal-file names derive from it).
const MaxNamespaceLen = 64

// ValidNamespace reports whether ns is a legal namespace name: empty (the
// default tenant) or 1..MaxNamespaceLen characters drawn from
// [a-zA-Z0-9._-]. The alphabet is restricted so a namespace can appear
// verbatim in journal file names, URLs, and metrics labels without escaping.
func ValidNamespace(ns string) bool {
	if len(ns) > MaxNamespaceLen {
		return false
	}
	for i := 0; i < len(ns); i++ {
		c := ns[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// request is a decoded ioPath frame.
type request struct {
	seq     uint64
	ns      string
	addrs   []int  // the write part's addresses, then the read part's
	nw      int    // how many of addrs the write part has
	payload []byte // the write part's blocks
}

func (q request) wAddrs() []int { return q.addrs[:q.nw] }
func (q request) rAddrs() []int { return q.addrs[q.nw:] }

// encodeRequest builds an ioPath request body with room for payloadLen
// payload bytes in buf's storage (a fresh array only when buf is too short),
// returning the body and the payload sub-slice for the caller to fill in
// place: the write part's elements are encoded directly into it, with no
// intermediate copy. The payload still holds whatever buf held; the caller
// overwrites all of it.
func encodeRequest(buf []byte, seq uint64, ns string, wAddrs, rAddrs []int, payloadLen int) (body, payload []byte) {
	hdr := headerLen + len(ns)
	na := len(wAddrs) + len(rAddrs)
	n := hdr + 8*na + payloadLen
	body = slices.Grow(buf[:0], n)[:n]
	copy(body, magic)
	binary.LittleEndian.PutUint64(body[4:], seq)
	body[nsLenOff] = byte(len(ns))
	copy(body[nsLenOff+1:], ns)
	binary.LittleEndian.PutUint32(body[hdr-8:], uint32(len(wAddrs)))
	binary.LittleEndian.PutUint32(body[hdr-4:], uint32(len(rAddrs)))
	for i, a := range wAddrs {
		binary.LittleEndian.PutUint64(body[hdr+8*i:], uint64(a))
	}
	for i, a := range rAddrs {
		binary.LittleEndian.PutUint64(body[hdr+8*(len(wAddrs)+i):], uint64(a))
	}
	return body, body[hdr+8*na:]
}

// frameLen validates the fields in front of a frame's address lists —
// magic, namespace and both counts — and returns the header's length
// (where the addresses start), the counts, and the length of the whole
// frame those fields announce. head is the frame's start: at least the
// header, or the error says where it was truncated. The server reads this
// much of a body before it sizes a buffer for the rest.
func frameLen(head []byte, blockBytes int) (hdr, nw, nr int, want int64, err error) {
	if len(head) < headerLen {
		return 0, 0, 0, 0, fmt.Errorf("netstore: request truncated at %d bytes", len(head))
	}
	if string(head[:4]) != magic {
		return 0, 0, 0, 0, fmt.Errorf("netstore: bad magic %q", head[:4])
	}
	// The namespace length byte is inside the minimum header, but the name
	// itself extends it; re-check the bound before reading the name.
	nsLen := int(head[nsLenOff])
	if nsLen > MaxNamespaceLen {
		return 0, 0, 0, 0, fmt.Errorf("netstore: namespace length %d out of range [0,%d]", nsLen, MaxNamespaceLen)
	}
	hdr = headerLen + nsLen
	if len(head) < hdr {
		return 0, 0, 0, 0, fmt.Errorf("netstore: request truncated at %d bytes (namespace of %d)", len(head), nsLen)
	}
	if ns := string(head[nsLenOff+1 : hdr-8]); !ValidNamespace(ns) {
		return 0, 0, 0, 0, fmt.Errorf("netstore: invalid namespace %q", ns)
	}
	// Bound each count before any arithmetic or allocation: a crafted
	// header must not be able to wrap the length check (32-bit int
	// overflow) or force a giant make([]int, count) for a body that cannot
	// possibly carry that many addresses.
	rawW, rawR := binary.LittleEndian.Uint32(head[hdr-8:]), binary.LittleEndian.Uint32(head[hdr-4:])
	for _, c := range []uint32{rawW, rawR} {
		if c > uint32((maxBatchWire-headerLen)/8) {
			return 0, 0, 0, 0, fmt.Errorf("netstore: batch of %d blocks exceeds the wire cap", c)
		}
	}
	nw, nr = int(rawW), int(rawR)
	want = int64(hdr) + 8*int64(nw+nr) + int64(nw)*int64(blockBytes)
	if want > maxBatchWire {
		return 0, 0, 0, 0, fmt.Errorf("netstore: %d-byte frame exceeds the %d-byte wire cap", want, maxBatchWire)
	}
	return hdr, nw, nr, want, nil
}

// decodeRequest parses an ioPath request body into its request id,
// namespace, address lists and payload, validating the framing against
// blockBytes, the payload size of one block. The addresses land in addrs'
// storage when it is long enough.
func decodeRequest(body []byte, blockBytes int, addrs []int) (request, error) {
	hdr, nw, nr, want, err := frameLen(body, blockBytes)
	if err != nil {
		return request{}, err
	}
	if int64(len(body)) != want {
		return request{}, fmt.Errorf("netstore: a frame of %d writes and %d reads wants %d bytes, got %d", nw, nr, want, len(body))
	}
	q := request{
		seq:     binary.LittleEndian.Uint64(body[4:]),
		ns:      string(body[nsLenOff+1 : hdr-8]),
		addrs:   slices.Grow(addrs[:0], nw+nr)[:nw+nr],
		nw:      nw,
		payload: body[hdr+8*(nw+nr):],
	}
	for i := range q.addrs {
		a := binary.LittleEndian.Uint64(body[hdr+8*i:])
		// Bound by the platform int so the conversion below cannot truncate
		// (on 32-bit builds a huge address must be rejected, not wrapped
		// into some other, in-range block).
		if a > uint64(math.MaxInt) {
			return request{}, fmt.Errorf("netstore: block address %d out of range", a)
		}
		q.addrs[i] = int(a)
	}
	return q, nil
}

// infoJSON is the infoPath (and grow response) body: the store geometry.
type infoJSON struct {
	NumBlocks int `json:"numBlocks"`
	BlockSize int `json:"blockSize"`
}

// growJSON is the growPath request body.
type growJSON struct {
	NumBlocks int `json:"numBlocks"`
}

// traceJSON is the tracePath body: the server-side journal fingerprint. Hash
// is hex-encoded (a uint64 does not survive JSON numbers). Requests counts
// data-plane requests served successfully (rejected or failed ones don't
// count); Replays is the subset that were retransmissions — their write
// part acknowledged from the dedup window, their read part re-read, and
// suppressed from the journal either way.
type traceJSON struct {
	Len      int64  `json:"len"`
	Hash     string `json:"hash"`
	Requests int64  `json:"requests"`
	Replays  int64  `json:"replays"`
}

// namespaceInfoJSON is one tenant's row in the namespacesPath body.
type namespaceInfoJSON struct {
	Name       string `json:"name"`
	NumBlocks  int    `json:"numBlocks"`
	JournalLen int64  `json:"journalLen"`
	Requests   int64  `json:"requests"`
}

// namespacesJSON is the namespacesPath body: every tenant the server
// currently holds, default tenant included (as name "").
type namespacesJSON struct {
	Namespaces []namespaceInfoJSON `json:"namespaces"`
}
