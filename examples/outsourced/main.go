// Outsourced: the full threat model end to end — records stored encrypted
// in a real file (fresh nonce per write, so re-encryption is invisible), all
// maintenance done with data-oblivious operations, and the "server's view"
// printed to show what an honest-but-curious host actually observes.
package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"oblivext"
)

func main() {
	dir, err := os.MkdirTemp("", "oblivext-demo")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	key := make([]byte, 32) // in production: from your KMS
	for i := range key {
		key[i] = byte(i * 11)
	}
	client, err := oblivext.New(oblivext.Config{
		BlockSize:  8,
		CacheWords: 512,
		Seed:       2024,
		Path:       filepath.Join(dir, "tenant-data.dat"),
		// Every block write uses a fresh nonce: the host cannot tell a
		// re-encryption of old data from new data (the paper's semantic
		// security assumption, implemented).
		EncryptionKey: key,
	})
	if err != nil {
		panic(err)
	}
	defer client.Close()
	client.EnableTrace(6)

	// Upload salary records (the classic "don't let the host learn the
	// distribution" workload).
	r := rand.New(rand.NewPCG(9, 9))
	recs := make([]oblivext.Record, 3000)
	for i := range recs {
		recs[i] = oblivext.Record{Key: 30000 + r.Uint64()%170000, Val: uint64(i)}
	}
	arr, err := client.Store(recs)
	if err != nil {
		panic(err)
	}

	// Payroll analytics without leaking access patterns.
	median, err := arr.Select(arr.Len() / 2)
	if err != nil {
		panic(err)
	}
	deciles, err := arr.Quantiles(4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("median salary: %d\n", median.Key)
	fmt.Print("quartiles:")
	for _, q := range deciles {
		fmt.Printf(" %d", q.Key)
	}
	fmt.Println()

	if err := arr.Sort(); err != nil {
		panic(err)
	}
	sorted, _ := arr.Records()
	fmt.Printf("sorted on the host: lowest %d, highest %d\n",
		sorted[0].Key, sorted[len(sorted)-1].Key)

	ts := client.TraceSummary()
	st := client.Stats()
	fmt.Printf("\nwhat the host saw: %d block accesses (hash %016x), %d reads / %d writes\n",
		ts.Len, ts.Hash, st.Reads, st.Writes)
	fmt.Println("every byte on disk is AES-GCM-sealed with per-write nonces;")
	fmt.Println("the address sequence is a fixed function of (N, B, M, seed) — not of any salary")
}
