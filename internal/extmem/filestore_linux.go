package extmem

import (
	"errors"
	"os"
	"syscall"
)

// mapFile reserves the bytes [old, size) of f on the device and maps f's
// first size bytes MAP_SHARED. The reservation means a write through the
// mapping never lands in a hole, so it can never fault on a full disk.
// Where the file system supports no reservation or no mapping, or the
// length does not fit an int, it returns a nil mapping and no error: every
// run then takes ReadAt or WriteAt.
func mapFile(f *os.File, old, size int64) ([]byte, error) {
	if size == 0 || size != int64(int(size)) {
		return nil, nil
	}
	fd := int(f.Fd())
	if err := syscall.Fallocate(fd, 0, old, size-old); err != nil {
		if errors.Is(err, syscall.EOPNOTSUPP) {
			return nil, nil
		}
		return nil, &os.PathError{Op: "fallocate", Path: f.Name(), Err: err}
	}
	mem, err := syscall.Mmap(fd, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		if errors.Is(err, syscall.ENODEV) {
			return nil, nil
		}
		return nil, &os.PathError{Op: "mmap", Path: f.Name(), Err: err}
	}
	return mem, nil
}

// unmapFile undoes mapFile; a nil mapping is a no-op.
func unmapFile(mem []byte) error {
	if mem == nil {
		return nil
	}
	return syscall.Munmap(mem)
}
