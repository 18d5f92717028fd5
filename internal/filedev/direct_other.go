//go:build !linux

package filedev

import "os"

// directSupported reports whether this platform can open the image with
// O_DIRECT. Open rejects Config.Direct when false.
const directSupported = false

// directFlag and directAlign are unused off Linux (Open rejects Direct
// first) but must compile.
const (
	directFlag  = 0
	directAlign = 4096
)

// alignedBuf is unreachable off Linux (the pool only builds aligned buffers
// in Direct mode, which Open rejects); a plain allocation keeps it honest.
func alignedBuf(n int) *[]byte {
	buf := make([]byte, n)
	return &buf
}

// punchHole is a no-op off Linux; reset zones simply keep their blocks.
func punchHole(f *os.File, off, length int64) {}

// mapImage maps nothing off Linux: Load stays one ReadAt per run.
func mapImage(*os.File, int64) ([]byte, error) { return nil, nil }

// unmapImage is unreachable off Linux (there is no mapping to release).
func unmapImage([]byte) error { return nil }
