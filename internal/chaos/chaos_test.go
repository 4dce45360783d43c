package chaos

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"oblivext/internal/extmem"
)

// bg is the context the tests drive stores under when cancellation is not
// the subject.
var bg = context.Background()

// TestStoreScheduleWindows pins the injector's counting semantics: events
// fire on exactly the scripted 0-based interactions, windows span [At,
// At+For), and untouched interactions pass through.
func TestStoreScheduleWindows(t *testing.T) {
	s := NewStore(extmem.NewMemStore(8, 2), "bob", Schedule{
		{Target: "bob", At: 1, Kind: Err500},
		{Target: "bob", At: 3, For: 2, Kind: Drop},
	})
	dst := make([]extmem.Element, 2)
	wantFail := []bool{false, true, false, true, true, false}
	for i, want := range wantFail {
		err := extmem.ReadBlocksCtx(bg, s, []int{0}, dst)
		if got := err != nil; got != want {
			t.Errorf("interaction %d: failed=%v, want %v (err=%v)", i, got, want, err)
		}
	}
	want := []string{"bob#1 err500", "bob#3 drop", "bob#4 drop"}
	if got := s.Decisions(); !reflect.DeepEqual(got, want) {
		t.Errorf("decisions %v, want %v", got, want)
	}
	if n := s.Interactions("bob"); n != int64(len(wantFail)) {
		t.Errorf("Interactions = %d, want %d", n, len(wantFail))
	}
}

// TestStoreKillIsPermanent pins the kill latch: from the trigger point on,
// every interaction fails — including ones long past the event — and GrowTo
// (control plane, normally unfaulted) dies with the target.
func TestStoreKillIsPermanent(t *testing.T) {
	s := NewStore(extmem.NewMemStore(8, 2), "bob", Schedule{{Target: "bob", At: 2, Kind: Kill}})
	dst := make([]extmem.Element, 2)
	if err := s.GrowTo(8); err != nil {
		t.Fatalf("GrowTo before death should pass: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := extmem.ReadBlocksCtx(bg, s, []int{0}, dst); err != nil {
			t.Fatalf("interaction %d should pass: %v", i, err)
		}
	}
	for i := 2; i < 6; i++ {
		if err := extmem.ReadBlocksCtx(bg, s, []int{0}, dst); err == nil {
			t.Fatalf("interaction %d should fail: the target is dead", i)
		}
	}
	if err := s.GrowTo(16); err == nil {
		t.Error("GrowTo on a dead target should fail")
	}
}

// TestStoreAddEventArmsLate pins the mid-run arming path used by the e2e
// tests: traffic that predates AddEvent is untouched; the event's At is
// measured on the same counter Interactions reports.
func TestStoreAddEventArmsLate(t *testing.T) {
	s := NewStore(extmem.NewMemStore(8, 2), "bob", nil)
	dst := make([]extmem.Element, 2)
	for i := 0; i < 5; i++ {
		if err := extmem.ReadBlocksCtx(bg, s, []int{0}, dst); err != nil {
			t.Fatalf("setup interaction %d: %v", i, err)
		}
	}
	s.AddEvent(Event{Target: "bob", At: s.Interactions("bob") + 1, Kind: Err503})
	if err := extmem.ReadBlocksCtx(bg, s, []int{0}, dst); err != nil {
		t.Fatalf("interaction 5 predates the armed event: %v", err)
	}
	if err := extmem.ReadBlocksCtx(bg, s, []int{0}, dst); err == nil {
		t.Fatal("interaction 6 should hit the armed event")
	}
	if err := extmem.ReadBlocksCtx(bg, s, []int{0}, dst); err != nil {
		t.Fatalf("interaction 7 is past the window: %v", err)
	}
}

// TestStoreStallDelaysOnly pins that Stall changes timing, not outcomes.
func TestStoreStallDelaysOnly(t *testing.T) {
	s := NewStore(extmem.NewMemStore(8, 2), "bob", Schedule{
		{Target: "bob", At: 0, Kind: Stall, Stall: 30 * time.Millisecond},
	})
	src := []extmem.Element{{Key: 3, Flags: extmem.FlagOccupied}, {}}
	start := time.Now()
	if err := extmem.WriteBlocksCtx(bg, s, []int{1}, src); err != nil {
		t.Fatalf("stalled write must still succeed: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("stalled write returned in %v, want >= 30ms", d)
	}
	dst := make([]extmem.Element, 2)
	if err := extmem.ReadBlocksCtx(bg, s, []int{1}, dst); err != nil || dst[0].Key != 3 {
		t.Errorf("read after stall: err=%v key=%d, want nil,3", err, dst[0].Key)
	}
}

// TestEmptyTargetMatchesAll pins wildcard events.
func TestEmptyTargetMatchesAll(t *testing.T) {
	s := NewStore(extmem.NewMemStore(8, 2), "anything", Schedule{{At: 0, Kind: Err500}})
	dst := make([]extmem.Element, 2)
	if err := extmem.ReadBlocksCtx(bg, s, []int{0}, dst); err == nil {
		t.Fatal("wildcard event should match any target label")
	}
}

// TestTransportFaultsDataPlaneOnly pins the Transport's plane split: /v1/io
// requests advance the counter and take faults; control-plane paths pass
// through unfaulted and uncounted — until a Kill, which takes everything
// down.
func TestTransportFaultsDataPlaneOnly(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer backend.Close()
	host := strings.TrimPrefix(backend.URL, "http://")

	tr := NewTransport(nil, Schedule{{Target: host, At: 1, Kind: Err503}})
	client := &http.Client{Transport: tr}
	get := func(path string) (int, error) {
		resp, err := client.Get(backend.URL + path)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	// Control traffic neither counts nor faults.
	for i := 0; i < 3; i++ {
		if code, err := get("/v1/trace"); err != nil || code != http.StatusOK {
			t.Fatalf("control request %d: code=%d err=%v", i, code, err)
		}
	}
	if n := tr.Interactions(host); n != 0 {
		t.Fatalf("control traffic advanced the counter to %d", n)
	}
	// Data-plane interaction 0 passes, 1 takes the synthesized 503.
	if code, err := get("/v1/io"); err != nil || code != http.StatusOK {
		t.Fatalf("io #0: code=%d err=%v, want 200", code, err)
	}
	code, err := get("/v1/io")
	if err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("io #1: code=%d err=%v, want a synthesized 503", code, err)
	}
	if want := []string{host + "#1 err503"}; !reflect.DeepEqual(tr.Decisions(), want) {
		t.Errorf("decisions %v, want %v", tr.Decisions(), want)
	}

	// Kill takes the control plane down too.
	tr.AddEvent(Event{Target: host, At: tr.Interactions(host), Kind: Kill})
	if _, err := get("/v1/io"); err == nil {
		t.Fatal("io after kill should fail at the transport")
	}
	if _, err := get("/v1/trace"); err == nil {
		t.Fatal("control traffic to a dead host should fail")
	}
}

// TestTransportDropIsWireError pins that Drop surfaces as a transport error
// (no response), the shape of a reset connection — which the netstore client
// treats as retryable.
func TestTransportDropIsWireError(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer backend.Close()
	host := strings.TrimPrefix(backend.URL, "http://")
	tr := NewTransport(nil, Schedule{{Target: host, At: 0, Kind: Drop}})
	client := &http.Client{Transport: tr}
	if _, err := client.Get(backend.URL + "/v1/io"); err == nil {
		t.Fatal("dropped request should surface as a wire error")
	}
	if resp, err := client.Get(backend.URL + "/v1/io"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("interaction 1 is past the drop window: %v", err)
	} else {
		resp.Body.Close()
	}
}
