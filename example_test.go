package oblivext_test

import (
	"fmt"
	"net/http/httptest"

	"oblivext"
	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
)

// ExampleNew outsources records to an in-memory Bob and runs the paper's
// headline operations.
func ExampleNew() {
	client, err := oblivext.New(oblivext.Config{BlockSize: 8, CacheWords: 512, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer client.Close()

	records := []oblivext.Record{{Key: 30, Val: 1}, {Key: 10, Val: 2}, {Key: 20, Val: 3}}
	arr, err := client.Store(records)
	if err != nil {
		panic(err)
	}
	if err := arr.Sort(); err != nil {
		panic(err)
	}
	median, err := arr.Select(2)
	if err != nil {
		panic(err)
	}
	fmt.Println("median key:", median.Key)
	// Output:
	// median key: 20
}

// ExampleNew_encryptedHTTPBackend points an encrypting client at a real
// obstore server: Alice seals every block (AES-256-GCM, fresh nonce per
// write) before it leaves the process, so Bob only ever stores
// salt‖counter‖ciphertext‖tag. A sealed block occupies BlockSize+2 elements, which is
// why the server is provisioned with CryptChildBlockSize(8) = 10 — a
// standalone deployment would run `obstore -b 10` (plus -tls-cert/-tls-key
// and -auth-token, matched by Config.TLSRootCA and Config.AuthToken).
func ExampleNew_encryptedHTTPBackend() {
	// An in-process stand-in for `obstore -b 10`.
	server := netstore.NewServer(
		extmem.NewMemStore(4096, extmem.CryptChildBlockSize(8)), netstore.ServerOptions{})
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	key := make([]byte, 32) // in production: from a KMS or key file, never hard-coded
	for i := range key {
		key[i] = byte(i)
	}
	client, err := oblivext.New(oblivext.Config{
		BlockSize:     8,
		CacheWords:    512,
		Seed:          1,
		URL:           ts.URL,
		EncryptionKey: key,
	})
	if err != nil {
		panic(err)
	}
	defer client.Close()

	records := make([]oblivext.Record, 100)
	for i := range records {
		records[i] = oblivext.Record{Key: uint64(100 - i), Val: uint64(i)}
	}
	arr, err := client.Store(records)
	if err != nil {
		panic(err)
	}
	if err := arr.Sort(); err != nil {
		panic(err)
	}
	smallest, err := arr.Select(1)
	if err != nil {
		panic(err)
	}
	st := client.Stats()
	fmt.Println("smallest key:", smallest.Key)
	fmt.Println("crypto ran client-side:", st.BytesSealed > 0 && st.BytesOpened > 0)
	// Output:
	// smallest key: 1
	// crypto ran client-side: true
}
