//go:build !linux

package extmem

import "os"

// mapFile maps nothing off Linux: every run takes ReadAt or WriteAt.
func mapFile(*os.File, int64, int64) ([]byte, error) { return nil, nil }

// unmapFile undoes mapFile.
func unmapFile([]byte) error { return nil }
