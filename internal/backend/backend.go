// Package backend turns a -device command-line spec into zoned devices. It
// is the one place that knows both implementations of the internal/device
// contract — the flashsim simulator and the file-backed filedev — so the
// compare and chaos harnesses and both binaries can accept `-device=sim` or
// `-device=file:<path>` uniformly.
package backend

import (
	"fmt"
	"strings"
	"sync/atomic"

	"nemo/internal/device"
	"nemo/internal/filedev"
	"nemo/internal/flashsim"
)

// Spec is a parsed -device value: which backend to open devices on, and
// (for file) where to put the images. The zero value is the simulator. One
// Spec can open many devices — the compare and bench harnesses build a
// fresh device per engine per shard count — and file-backed opens derive a
// unique image path per device so they never collide.
type Spec struct {
	kind string // "sim" or "file"
	path string // image path for "file"

	opens *atomic.Int64 // file specs: open counter for unique image paths
}

// Parse interprets a -device flag value: "sim" (or empty) for the
// simulator, "file:<path>" for the file-backed device.
func Parse(s string) (Spec, error) {
	switch {
	case s == "" || s == "sim":
		return Sim(), nil
	case strings.HasPrefix(s, "file:"):
		path := strings.TrimPrefix(s, "file:")
		if path == "" {
			return Spec{}, fmt.Errorf("backend: file device needs a path, e.g. -device=file:/tmp/nemo.img")
		}
		return File(path), nil
	default:
		return Spec{}, fmt.Errorf("backend: unknown device spec %q (want sim or file:<path>)", s)
	}
}

// Sim returns the simulator spec (what Parse("sim") returns).
func Sim() Spec { return Spec{kind: "sim"} }

// File returns a file-backed spec rooted at path.
func File(path string) Spec {
	return Spec{kind: "file", path: path, opens: new(atomic.Int64)}
}

// String renders the spec back to flag form.
func (s Spec) String() string {
	if s.IsFile() {
		return "file:" + s.path
	}
	return "sim"
}

// IsFile reports whether the spec opens file-backed devices.
func (s Spec) IsFile() bool { return s.kind == "file" }

// Open builds a device with the given geometry on the spec's backend.
// Simulator devices use a fresh virtual clock and the simulator's default
// latency model. File devices are opened RemoveOnClose — images carry no
// durable state (filedev reformats on open), so whoever opened the device
// cleans its image up on Close. The first file open uses the spec path
// itself; later opens suffix .1, .2, … so multi-device harnesses get
// distinct images.
func (s Spec) Open(g device.Geometry) (device.Device, error) {
	return s.open(g, false)
}

// OpenPersistent builds a device meant to outlive the process — the warm-
// restart configuration. File devices are opened with Persist set (write
// pointers and the generation stamp survive a clean Close in the image's
// superblock) and are kept on Close. The simulator has no backing store, so
// a sim spec degrades to a plain volatile Open: a fresh device whose
// generation never matches an earlier snapshot, making every restart cold —
// the correct, safe behaviour, not an error.
func (s Spec) OpenPersistent(g device.Geometry) (device.Device, error) {
	return s.open(g, true)
}

// open is the one place a Geometry becomes a backend Config. persist picks
// between the two lives a file image can have: kept and warm-openable, or
// removed on Close.
func (s Spec) open(g device.Geometry, persist bool) (device.Device, error) {
	if !s.IsFile() { // includes the zero-value Spec
		return flashsim.New(flashsim.Config{
			PageSize:     g.PageSize,
			PagesPerZone: g.PagesPerZone,
			Zones:        g.Zones,
			MaxOpenZones: g.MaxOpenZones,
		}), nil
	}
	path := s.path
	if n := s.opens.Add(1) - 1; n > 0 {
		path = fmt.Sprintf("%s.%d", s.path, n)
	}
	return filedev.Open(filedev.Config{
		Path:          path,
		PageSize:      g.PageSize,
		PagesPerZone:  g.PagesPerZone,
		Zones:         g.Zones,
		MaxOpenZones:  g.MaxOpenZones,
		RemoveOnClose: !persist,
		Persist:       persist,
	})
}
