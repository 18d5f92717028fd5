//go:build linux

package filedev

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// directSupported reports whether this platform can open the image with
// O_DIRECT.
const directSupported = true

// directFlag is the open(2) flag for direct I/O.
const directFlag = syscall.O_DIRECT

// directAlign is the memory/offset/length alignment O_DIRECT transfers
// must satisfy. 512 is the historical floor; 4096 is safe on every modern
// filesystem and matches the default page size.
const directAlign = 4096

// Linux fallocate(2) mode bits (not exported by package syscall).
const (
	fallocKeepSize  = 0x1 // FALLOC_FL_KEEP_SIZE
	fallocPunchHole = 0x2 // FALLOC_FL_PUNCH_HOLE
)

// alignedBuf allocates an n-byte buffer whose base address is
// directAlign-aligned, for O_DIRECT transfers. The returned slice aliases a
// larger allocation; the pool stores the pointer so the backing array stays
// reachable.
func alignedBuf(n int) *[]byte {
	raw := make([]byte, n+directAlign)
	off := 0
	if rem := uintptr(unsafe.Pointer(&raw[0])) % directAlign; rem != 0 {
		off = directAlign - int(rem)
	}
	buf := raw[off : off+n : off+n]
	return &buf
}

// punchHole releases the file blocks backing [off, off+length) without
// changing the file size. Best-effort: failure (unsupported filesystem,
// O_DIRECT quirks) is ignored because reads beyond the write pointer are
// zero-filled in software anyway.
func punchHole(f *os.File, off, length int64) {
	_ = syscall.Fallocate(int(f.Fd()), fallocPunchHole|fallocKeepSize, off, length)
}

// mapImage maps the image's data range [0, size) read-only and shared. A
// MAP_SHARED mapping is the file's page cache itself, so it sees every pwrite
// and hole punch made through the descriptor.
func mapImage(f *os.File, size int64) ([]byte, error) {
	if int64(int(size)) != size {
		return nil, fmt.Errorf("%d-byte data range exceeds the address space", size)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// unmapImage releases a mapping made by mapImage.
func unmapImage(b []byte) error { return syscall.Munmap(b) }
