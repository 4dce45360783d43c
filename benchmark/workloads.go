package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"oblivext"
)

// The four workloads, through the public API only. Every Config field other
// than geometry, backend, EncryptionKey and Sorter stays at its default, and
// so do GOMAXPROCS and GOGC, so that a later change of a default shows.
// -seed generates inputs only; Alice's tape (Config.Seed) is a constant per
// workload, so by the paper's security property every count repeats exactly
// whatever the seed.

const (
	blockSize = 8 // B everywhere

	tapeSortMem  = 0x50a7
	tapeSortHTTP = 0x50a8
	tapeScanFile = 0x50a9
	tapeKV       = 0x50aa
)

// sizes is a run's geometry; -quick swaps in the smoke-test one.
type sizes struct {
	logN       int // the batch workloads move 2^logN records
	cacheWords int // M for the batch workloads
	kvSlots    int
	kvCache    int // M for each KV session
	kvRequests int // requests per client per pass
	minPasses  int // timed passes a run makes however short -seconds is
}

var (
	// kvRequests is two periods of the 32-slot ORAM's rebuild schedule, so
	// every pass from a fresh ORAM crosses the same rebuilds.
	fullSizes  = sizes{logN: 16, cacheWords: 4096, kvSlots: 32, kvCache: 512, kvRequests: 64, minPasses: 3}
	quickSizes = sizes{logN: 10, cacheWords: 512, kvSlots: 32, kvCache: 512, kvRequests: 16, minPasses: 1}
)

func encryptionKey() []byte { return []byte("oblivext-benchmark-key-32-bytes!") }

// pass is one set-up plus one timed window: one op for the batch workloads,
// kvRequests requests per client for kv_mix_http.
type pass struct {
	setupS  float64 // untimed preparation: input, servers, New, Store, ORAM build; net of stolen CPU
	wallS   float64 // the timed window, wall clock
	cpuMs   float64 // process user+sys CPU over the window, in-process servers included
	mallocs float64
	bytes   float64
	gcs     float64
	gcCPUS  float64
	stolenS float64 // CPU seconds the hypervisor took from the VM during the window

	records int       // records the window processed (one KV request = one record)
	ops     int       // ops attempted in the window
	failed  int       // ops that returned an error or a wrong answer
	opMs    []float64 // each op's wall time
	getMs   []float64 // kv_mix_http, by verb
	putMs   []float64
	errs    []error

	blockIOs       int64            // reads + writes below the cache, over the window
	roundTrips     int64            // store interactions (KV: the sessions' wire requests)
	sealedBytes    int64            // bytes sealed + opened client-side
	ioStats        oblivext.IOStats // batch workloads: the window's full counters
	wire           serverCounts     // the servers' own counters over the window
	cacheHighWater int
	retries        int64
	fingerprint    oblivext.TraceSummary // with fingerprinting on: the whole session's trace
}

// netS is the window's wall time net of what the hypervisor took from the
// process's one CPU during it: the time the VM actually had to run the op.
// There, with every thread of the process taking turns on that CPU, wall time
// grows by exactly the stolen time (measured over all four workloads: wall
// minus stolen equals the window's CPU time to three digits, for stolen
// between 0 and 2.8 s). On several CPUs nobody can say which thread lost the
// time, and it is plain wall time.
func (p *pass) netS() float64 {
	if pinnedCPU < 0 {
		return p.wallS
	}
	return max(p.wallS-p.stolenS, p.wallS/10)
}

// setupTimer times a pass's set-up. Set-ups last from 2 ms to 1 s, too short
// for a steal counter that counts hundredths of a second, so on one CPU the
// time is the process's CPU time, which is the same quantity (see netS).
type setupTimer struct {
	cpu   time.Duration
	start time.Time
}

func beginSetup() setupTimer { return setupTimer{processCPU(), time.Now()} }

func (t setupTimer) seconds() float64 {
	if pinnedCPU < 0 {
		return time.Since(t.start).Seconds()
	}
	return (processCPU() - t.cpu).Seconds()
}

func (p *pass) fail(err error) {
	p.failed++
	p.errs = append(p.errs, err)
}

// window measures wall time, CPU, allocation and GC over one timed window.
type window struct {
	start   time.Time
	ru      syscall.Rusage
	ms      runtime.MemStats
	gcCPUS  float64
	stolenS float64
}

// stolenSeconds is the cumulative steal time of the process's one CPU, or of
// the whole machine when it runs on several: CPU the hypervisor gave to
// someone else while this VM wanted it (the eighth field of /proc/stat's cpuN
// or cpu line, in 1/100 s). 0 where there is no such counter.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	want := "cpu" // the whole machine's
	if pinnedCPU >= 0 {
		want += strconv.Itoa(pinnedCPU)
	}
	var fields []string
	for _, line := range strings.Split(string(data), "\n") {
		fields = strings.Fields(line)
		if len(fields) > 0 && fields[0] == want {
			break
		}
	}
	if len(fields) < 9 || fields[0] != want {
		return 0
	}
	jiffies, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return jiffies / 100
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func gcCPUSeconds() float64 {
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gcCPUSample[0].Value.Float64()
}

func cpuOf(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func beginWindow() *window {
	w := &window{gcCPUS: gcCPUSeconds(), stolenS: stolenSeconds()}
	runtime.ReadMemStats(&w.ms)
	syscall.Getrusage(syscall.RUSAGE_SELF, &w.ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	w.start = time.Now()
	return w
}

func (w *window) end(p *pass) {
	p.wallS = time.Since(w.start).Seconds()
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.cpuMs = float64(cpuOf(&ru)-cpuOf(&w.ru)) / float64(time.Millisecond)
	p.mallocs = float64(ms.Mallocs - w.ms.Mallocs)
	p.bytes = float64(ms.TotalAlloc - w.ms.TotalAlloc)
	p.gcs = float64(ms.NumGC - w.ms.NumGC)
	p.gcCPUS = gcCPUSeconds() - w.gcCPUS
	p.stolenS = stolenSeconds() - w.stolenS
}

// guard runs f and turns a panic into an error: the library panics when a
// store call fails, and a failed op must be counted, not crash the run.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// genRecords makes a pass's input. Keys repeat (range 4n) so that the
// insertion-order tie-break is exercised.
func genRecords(n int, seed, stream uint64) []oblivext.Record {
	rng := rand.New(rand.NewPCG(seed, stream))
	recs := make([]oblivext.Record, n)
	for i := range recs {
		recs[i] = oblivext.Record{Key: rng.Uint64N(uint64(4 * n)), Val: rng.Uint64()}
	}
	return recs
}

// run is what every pass of one benchmark run shares.
type run struct {
	sz     sizes
	seed   uint64
	tmpDir string
}

func (r *run) n() int { return 1 << r.sz.logN }

// passArgs says which pass to make: the stream'th input of seed; with tr
// non-nil, traced; sequential makes kv_mix_http run its two sessions one after
// the other (a traced pass and its untraced twin need one enclosing op per
// wire span); fingerprint records the session's access trace for the
// obliviousness check (batch workloads).
type passArgs struct {
	seed, stream uint64
	tr           *tracer
	sequential   bool
	fingerprint  bool
}

// workload is one named traffic shape.
type workload struct {
	name    string
	batch   bool // one op per pass on a stored array; the obliviousness check applies
	runPass func(r *run, a passArgs) *pass
}

var workloads = []workload{
	{name: "sort_mem", batch: true, runPass: sortMemPass},
	{name: "sort_enc_http", batch: true, runPass: sortEncHTTPPass},
	{name: "scan_enc_file", batch: true, runPass: scanEncFilePass},
	{name: "kv_mix_http", runPass: kvMixHTTPPass},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// batchSpec is what distinguishes the three batch workloads.
type batchSpec struct {
	shards int // loopback obstore servers to start
	config func(r *run, urls []string) oblivext.Config
	// op runs the timed calls, each inside its own op span, and returns what
	// verify needs.
	op     func(tr *tracer, c *oblivext.Client, arr *oblivext.Array) (any, error)
	verify func(input []oblivext.Record, arr *oblivext.Array, result any) error
}

func batchPass(r *run, spec batchSpec, a passArgs) *pass {
	tr := a.tr
	p := &pass{records: r.n(), ops: 1}
	// Set-up is everything before the timed window, input generation
	// included: on sort_mem the rest of it is a millisecond, too short to
	// time steadily on its own.
	setup := beginSetup()
	input := genRecords(r.n(), a.seed, a.stream)
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.handler
	}
	var fleet []*obstore
	var urls []string
	for i := 0; i < spec.shards; i++ {
		o := startObstore(sealedBlockSize(blockSize), false, wrap)
		defer o.close()
		fleet = append(fleet, o)
		urls = append(urls, o.url())
	}
	cfg := spec.config(r, urls)
	if tr != nil && spec.shards > 0 {
		base := defaultTransport(cfg.NumShards, cfg.Replicas)
		defer base.CloseIdleConnections()
		cfg.HTTPTransport = tr.transport(base)
	}
	c, err := oblivext.New(cfg)
	if err != nil {
		p.fail(fmt.Errorf("New: %w", err))
		return p
	}
	defer c.Close()
	if a.fingerprint {
		c.EnableTrace(0)
	}
	ios := func() int64 { return c.Stats().Total() }
	var arr *oblivext.Array
	err = tr.op("store", ios, func() error {
		return guard(func() (err error) { arr, err = c.Store(input); return err })
	})
	if err != nil {
		p.fail(fmt.Errorf("Store: %w", err))
		return p
	}
	p.setupS = setup.seconds()

	ioBefore, wireBefore := c.Stats(), fleetCounts(fleet)
	w := beginWindow()
	var result any
	err = guard(func() (err error) { result, err = spec.op(tr, c, arr); return err })
	w.end(p)
	p.opMs = []float64{1e3 * p.netS()} // the op is the window
	p.ioStats, p.wire = c.Stats().Sub(ioBefore), fleetCounts(fleet).sub(wireBefore)
	p.blockIOs, p.roundTrips = p.ioStats.Total(), p.ioStats.RoundTrips
	p.sealedBytes = p.ioStats.BytesSealed + p.ioStats.BytesOpened
	p.cacheHighWater = c.CacheHighWater()
	for _, s := range c.MeasuredNetworkStats() {
		p.retries += s.Retries
	}
	if a.fingerprint {
		p.fingerprint = c.TraceSummary()
	}

	if err == nil {
		err = guard(func() error { return spec.verify(input, arr, result) })
	}
	if err == nil && p.cacheHighWater > cfg.CacheWords {
		err = fmt.Errorf("cache high water %d exceeds M=%d", p.cacheHighWater, cfg.CacheWords)
	}
	if err != nil {
		p.fail(err)
	}
	return p
}

// ---- sort_mem, sort_enc_http ----

func sortOp(span string) func(*tracer, *oblivext.Client, *oblivext.Array) (any, error) {
	return func(tr *tracer, c *oblivext.Client, arr *oblivext.Array) (any, error) {
		return nil, tr.op(span, func() int64 { return c.Stats().Total() }, arr.Sort)
	}
}

func byKeyStable(recs []oblivext.Record) []oblivext.Record {
	s := append([]oblivext.Record(nil), recs...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Key < s[j].Key })
	return s
}

func sameRecords(what string, got, want []oblivext.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: record %d is %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// verifySorted checks the array is the input sorted by key with ties in
// insertion order, which also makes it a permutation of the input.
func verifySorted(input []oblivext.Record, arr *oblivext.Array, _ any) error {
	got, err := arr.Records()
	if err != nil {
		return err
	}
	return sameRecords("Sort", got, byKeyStable(input))
}

func sortMemPass(r *run, a passArgs) *pass {
	return batchPass(r, batchSpec{
		config: func(r *run, _ []string) oblivext.Config {
			return oblivext.Config{BlockSize: blockSize, CacheWords: r.sz.cacheWords, Seed: tapeSortMem}
		},
		op:     sortOp("sort_randomized"),
		verify: verifySorted,
	}, a)
}

func sortEncHTTPPass(r *run, a passArgs) *pass {
	return batchPass(r, batchSpec{
		shards: 2,
		config: func(r *run, urls []string) oblivext.Config {
			return oblivext.Config{BlockSize: blockSize, CacheWords: r.sz.cacheWords, Seed: tapeSortHTTP,
				Sorter: "auto", EncryptionKey: encryptionKey(), NumShards: len(urls), ShardURLs: urls}
		},
		op:     sortOp("sort_auto"),
		verify: verifySorted,
	}, a)
}

// ---- scan_enc_file ----

const scanQuantiles = 8

func scanMarked(r oblivext.Record) bool { return r.Key%4 == 0 }

type scanResult struct {
	median      oblivext.Record
	quantiles   []oblivext.Record
	marked      int64
	tight, lose *oblivext.Array
}

func scanOp(tr *tracer, c *oblivext.Client, arr *oblivext.Array) (any, error) {
	n := arr.Len()
	ios := func() int64 { return c.Stats().Total() }
	var res scanResult
	steps := []struct {
		span string
		call func() error
	}{
		{"select", func() (err error) { res.median, err = arr.Select(n / 2); return }},
		{"quantiles", func() (err error) { res.quantiles, err = arr.Quantiles(scanQuantiles); return }},
		{"mark", func() (err error) { res.marked, err = arr.Mark(scanMarked); return }},
		{"compact_tight", func() (err error) { res.tight, err = arr.CompactTight(n / 3); return }},
		{"compact_loose", func() (err error) { res.lose, err = arr.CompactLoose(n / 3); return }},
	}
	for _, s := range steps {
		if err := tr.op(s.span, ios, s.call); err != nil {
			return nil, fmt.Errorf("%s: %w", s.span, err)
		}
	}
	return res, nil
}

func verifyScan(input []oblivext.Record, _ *oblivext.Array, result any) error {
	res := result.(scanResult)
	n := int64(len(input))
	oracle := byKeyStable(input)
	if want := oracle[n/2-1]; res.median != want {
		return fmt.Errorf("Select(%d) = %v, want %v", n/2, res.median, want)
	}
	if len(res.quantiles) != scanQuantiles {
		return fmt.Errorf("Quantiles(%d) returned %d records", scanQuantiles, len(res.quantiles))
	}
	for i, got := range res.quantiles {
		rank := int64(math.Round(float64(i+1) * float64(n) / float64(scanQuantiles+1)))
		if want := oracle[rank-1]; got != want {
			return fmt.Errorf("quantile %d (rank %d) = %v, want %v", i+1, rank, got, want)
		}
	}
	var marked []oblivext.Record
	for _, rec := range input {
		if scanMarked(rec) {
			marked = append(marked, rec)
		}
	}
	if res.marked != int64(len(marked)) {
		return fmt.Errorf("Mark counted %d, want %d", res.marked, len(marked))
	}
	tight, err := res.tight.Records()
	if err != nil {
		return err
	}
	if err := sameRecords("CompactTight", tight, marked); err != nil {
		return err
	}
	loose, err := res.lose.Records()
	if err != nil {
		return err
	}
	// Loose compaction does not keep order: compare as multisets.
	byKeyVal := func(s []oblivext.Record) []oblivext.Record {
		s = append([]oblivext.Record(nil), s...)
		sort.Slice(s, func(i, j int) bool {
			if s[i].Key != s[j].Key {
				return s[i].Key < s[j].Key
			}
			return s[i].Val < s[j].Val
		})
		return s
	}
	return sameRecords("CompactLoose", byKeyVal(loose), byKeyVal(marked))
}

func scanEncFilePass(r *run, a passArgs) *pass {
	path := filepath.Join(r.tmpDir, "scan.blocks")
	defer os.Remove(path)
	return batchPass(r, batchSpec{
		config: func(r *run, _ []string) oblivext.Config {
			return oblivext.Config{BlockSize: blockSize, CacheWords: r.sz.cacheWords, Seed: tapeScanFile,
				EncryptionKey: encryptionKey(), Path: path}
		},
		op:     scanOp,
		verify: verifyScan,
	}, a)
}

// ---- kv_mix_http ----

const (
	kvClients    = 2
	kvValueBytes = 32
)

func kvValue(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	var b strings.Builder
	for i := 0; i < kvValueBytes; i++ {
		b.WriteByte(alphabet[rng.IntN(len(alphabet))])
	}
	return b.String()
}

// kvDo issues one request and returns the response body.
func kvDo(hc *http.Client, method, url, body string) (string, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return "", err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(got)))
	}
	return string(got), nil
}

func kvMixHTTPPass(r *run, a passArgs) *pass {
	tr, requests := a.tr, r.sz.kvRequests
	p := &pass{records: kvClients * requests, ops: kvClients * requests}

	setup := beginSetup()
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.handler
	}
	var fleet []*obstore
	var urls []string
	for i := 0; i < 2; i++ {
		o := startObstore(sealedBlockSize(blockSize), true, wrap)
		defer o.close()
		fleet = append(fleet, o)
		urls = append(urls, o.url())
	}
	base := oblivext.Config{BlockSize: blockSize, CacheWords: r.sz.kvCache, Seed: tapeKV,
		EncryptionKey: encryptionKey(), Replicas: len(urls), ReplicaURLs: urls}
	if tr != nil {
		inner := defaultTransport(base.NumShards, base.Replicas)
		defer inner.CloseIdleConnections()
		base.HTTPTransport = tr.transport(inner)
	}
	front, err := startKV(base, r.sz.kvSlots)
	if err != nil {
		p.fail(err)
		return p
	}
	defer front.close() //nolint:errcheck // sessions hold nothing durable
	transport := &http.Transport{MaxIdleConnsPerHost: kvClients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}
	ns := func(g int) string { return fmt.Sprintf("tenant%d", g) }
	slotURL := func(g, slot int) string { return fmt.Sprintf("%s/v1/kv/%s/%d", front.url(), ns(g), slot) }
	// A namespace's first request builds its ORAM: that is set-up.
	for g := 0; g < kvClients; g++ {
		err := tr.op("oram_build", nil, func() error {
			got, err := kvDo(hc, http.MethodGet, slotURL(g, 0), "")
			if err == nil && got != "" {
				err = fmt.Errorf("fresh slot holds %q", got)
			}
			return err
		})
		if err != nil {
			p.fail(fmt.Errorf("session %d first request: %w", g, err))
			return p
		}
	}
	p.setupS = setup.seconds()

	type result struct {
		opMs, getMs, putMs []float64
		errs               []error
	}
	results := make([]result, kvClients)
	session := func(g int) {
		res := &results[g]
		rng := rand.New(rand.NewPCG(a.seed, a.stream<<8|uint64(g)))
		last := map[int]string{} // this session's last PUT per slot
		for i := 0; i < requests; i++ {
			slot := rng.IntN(r.sz.kvSlots)
			put := rng.IntN(2) == 0
			value := kvValue(rng)
			start := time.Now()
			var err error
			if put {
				err = tr.op("put", nil, func() error {
					_, err := kvDo(hc, http.MethodPut, slotURL(g, slot), value)
					return err
				})
			} else {
				err = tr.op("get", nil, func() error {
					got, err := kvDo(hc, http.MethodGet, slotURL(g, slot), "")
					if err == nil && got != last[slot] {
						err = fmt.Errorf("GET %s slot %d = %q, want %q", ns(g), slot, got, last[slot])
					}
					return err
				})
			}
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			res.opMs = append(res.opMs, ms)
			switch {
			case err != nil:
				res.errs = append(res.errs, err)
			case put:
				last[slot] = value
				res.putMs = append(res.putMs, ms)
			default:
				res.getMs = append(res.getMs, ms)
			}
		}
	}

	iosBefore, reqBefore, errBefore := front.sessionCounts()
	wireBefore := fleetCounts(fleet)
	w := beginWindow()
	if a.sequential {
		for g := 0; g < kvClients; g++ {
			session(g)
		}
	} else {
		var wg sync.WaitGroup
		for g := 0; g < kvClients; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); session(g) }()
		}
		wg.Wait()
	}
	w.end(p)
	ios, reqs, errs := front.sessionCounts()
	p.blockIOs, p.roundTrips = ios-iosBefore, reqs-reqBefore
	p.wire = fleetCounts(fleet).sub(wireBefore)
	for _, res := range results {
		p.opMs = append(p.opMs, res.opMs...)
		p.getMs = append(p.getMs, res.getMs...)
		p.putMs = append(p.putMs, res.putMs...)
		for _, err := range res.errs {
			p.fail(err)
		}
	}
	if n := errs - errBefore; n > 0 && p.failed == 0 {
		p.fail(fmt.Errorf("service counted %d failed requests the clients did not see", n))
	}
	return p
}

// ---- public-API probes: obs and par ----

// sortWall sorts 2^logN fresh records on an in-memory client built from cfg
// and returns the Sort's wall time in ms.
func sortWall(logN int, cfg oblivext.Config, spans bool) (float64, error) {
	c, err := oblivext.New(cfg)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if spans {
		c.EnableSpans()
	}
	input := genRecords(1<<logN, 1, 99)
	var ms float64
	err = guard(func() error {
		arr, err := c.Store(input)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := arr.Sort(); err != nil {
			return err
		}
		ms = float64(time.Since(start)) / float64(time.Millisecond)
		return verifySorted(input, arr, nil)
	})
	return ms, err
}

// publicProbes measures what two defaults cost or leave on the table: phase
// spans on versus off, and two compute workers versus the default.
func publicProbes(ps probeSizes, out map[string]float64) error {
	ratio := func(cfgA, cfgB oblivext.Config, spansA bool) (float64, error) {
		var a, b []float64
		for i := 0; i < 3; i++ { // interleaved, so drift hits both sides
			runtime.GC()
			x, err := sortWall(ps.sortLog, cfgA, spansA)
			if err != nil {
				return 0, err
			}
			runtime.GC()
			y, err := sortWall(ps.sortLog, cfgB, false)
			if err != nil {
				return 0, err
			}
			a, b = append(a, x), append(b, y)
		}
		if median(b) == 0 {
			return 0, errors.New("probe sort took no time")
		}
		return median(a) / median(b), nil
	}
	plain := oblivext.Config{BlockSize: blockSize, CacheWords: probeM, Seed: 7, Sorter: "auto"}
	var err error
	if out["obs.spans_on_wall_ratio"], err = ratio(plain, plain, true); err != nil {
		return err
	}
	sealed := plain
	sealed.EncryptionKey = encryptionKey()
	two := sealed
	two.Workers = 2
	// Default over Workers=2: above 1 means the second worker helps.
	out["par.workers2_speedup"], err = ratio(sealed, two, false)
	return err
}
