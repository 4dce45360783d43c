package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Even on one CPU and net of stolen time, this sandbox runs the same code 20
// to 60 % slower for minutes on end when the host's other tenants are busy
// (shared cache and memory, not the steal counter, carry that). A run
// therefore keeps a yardstick beside the workload: a fixed mix of what the
// library and the Go runtime under it do (sorting, dependent reads over 32 MB,
// AES-GCM sealing, allocating 2 KB slices through the collector, round trips
// over a loopback socket), written here and touching nothing of the library,
// run in rounds of about 45 ms between passes for a sixteenth of the run. The
// end-to-end timings are divided by how much slower than yardstickRound the
// median round was, so they read as times on a sandbox in which a round takes
// exactly that long.
//
// The mix was weighed on three sets of ten runs of each workload, each set
// twenty minutes of busy and quiet spells with every part timed on its own.
// In a busy spell arithmetic and cache misses slow least (AES 8 %, sorting
// 15 %, dependent reads 19 %), allocation and socket round trips most (30 and
// 40 %), and the workloads by 30 to 60 %; which part followed a workload best
// changed from set to set, the mix was never far behind the best, and giving
// allocation and the socket about half of the round was as good as or better
// than equal shares in every set. Scaling by it took the ten-run
// interquartile spread of the timed metrics from 9 to 27 % down to 3 to 16 %.
// The per-layer timings are not scaled; bench.yardstick_ratio says what the
// scale was.

// yardstickRound is the reference: one round on this sandbox in a quiet spell.
const yardstickRound = 45 * time.Millisecond

// yardstickShare is the part of a run spent on the yardstick.
const yardstickShare = 1.0 / 16

// What one round does; the times are a quiet spell's.
const (
	yardSorts      = 4       // of yardKeys keys: 4 ms
	yardKeys       = 1 << 14 //
	yardSteps      = 90_000  // dependent reads: 16 ms
	yardChase      = 1 << 23 // over this many uint32s
	yardSeals      = 18_000  // of one sealed block: 2 ms
	yardAllocs     = 24_000  // of 2 KB, one in 64 kept for the round: 13 ms
	yardRoundTrips = 1_800   // of 64 bytes: 10 ms
)

type yardstick struct {
	keys, buf []uint64
	next      []uint32 // one cycle through 32 MB kept outside the Go heap, so that it does not move the collector's pace
	at        uint32
	gcm       cipher.AEAD
	block     []byte
	sealed    []byte
	kept      [][]uint64
	conn      net.Conn      // to an echo goroutine
	echoed    chan struct{} // closed when that goroutine has returned

	rounds []float64 // each round's CPU time in ms
	spent  time.Duration
	err    error // the first failed round trip; the run reports it
}

func newYardstick() (*yardstick, error) {
	rng := rand.New(rand.NewPCG(11, 12))
	y := &yardstick{keys: make([]uint64, yardKeys), buf: make([]uint64, yardKeys), echoed: make(chan struct{})}
	for i := range y.keys {
		y.keys[i] = rng.Uint64()
	}
	if mem, err := syscall.Mmap(-1, 0, 4*yardChase, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		y.next = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), yardChase)
	} else {
		y.next = make([]uint32, yardChase)
	}
	for i := range y.next {
		y.next[i] = uint32(i)
	}
	for i := len(y.next) - 1; i > 0; i-- { // Sattolo: a single cycle
		j := rng.IntN(i)
		y.next[i], y.next[j] = y.next[j], y.next[i]
	}
	blk, err := aes.NewCipher(encryptionKey())
	must(err)
	y.gcm, err = cipher.NewGCM(blk)
	must(err)
	y.block = make([]byte, 8*sealedBlockSize(blockSize))
	y.sealed = make([]byte, 0, len(y.block)+y.gcm.Overhead())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	go func() {
		defer close(y.echoed)
		c, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c) //nolint:errcheck // ends when close() closes the other side
	}()
	if y.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-y.echoed
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	return y, nil
}

// close stops the echo goroutine and waits for it.
func (y *yardstick) close() {
	y.conn.Close()
	<-y.echoed
}

// processCPU is the CPU time the process has used, collector included. On one
// CPU it is wall time minus what the hypervisor took, to the nanosecond where
// the steal counter counts hundredths of a second.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return cpuOf(&ru)
}

func (y *yardstick) round() {
	start := processCPU()
	for k := 0; k < yardSorts; k++ {
		copy(y.buf, y.keys)
		slices.Sort(y.buf)
	}
	for k := 0; k < yardSteps; k++ {
		y.at = y.next[y.at]
	}
	nonce := make([]byte, y.gcm.NonceSize())
	for k := 0; k < yardSeals; k++ {
		nonce[0], nonce[1] = byte(k), byte(k>>8)
		y.sealed = y.gcm.Seal(y.sealed[:0], nonce, y.block, nil)
	}
	y.kept = y.kept[:0]
	for k := 0; k < yardAllocs; k++ {
		b := make([]uint64, 256)
		b[0] = uint64(k)
		if k%64 == 0 {
			y.kept = append(y.kept, b)
		}
	}
	msg := make([]byte, 64)
	for k := 0; k < yardRoundTrips && y.err == nil; k++ {
		if _, y.err = y.conn.Write(msg); y.err == nil {
			_, y.err = io.ReadFull(y.conn, msg)
		}
	}
	d := processCPU() - start
	y.rounds = append(y.rounds, ms(d))
	y.spent += d
}

// keepUp runs one round, and more until the yardstick has had its share of
// the elapsed time.
func (y *yardstick) keepUp(elapsed time.Duration) {
	for {
		y.round()
		if float64(y.spent) >= yardstickShare*float64(elapsed) {
			return
		}
	}
}

// ratio is how much slower than the reference the median round was: above 1
// on a slow machine. Timings are divided by it.
func (y *yardstick) ratio() float64 {
	if len(y.rounds) == 0 {
		return 1
	}
	return median(y.rounds) / ms(yardstickRound)
}
