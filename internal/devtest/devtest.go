// Package devtest runs a test once per device backend, so fault-injection
// and semantics tests exercise both implementations of the internal/device
// contract instead of silently pinning flashsim-only behaviour. The core
// fault tests and the server drain suite run through it.
package devtest

import (
	"path/filepath"
	"testing"

	"nemo/internal/backend"
	"nemo/internal/device"
)

// Backend names one device implementation for a test run.
type Backend struct {
	// Name is the subtest name: "sim" or "file".
	Name string
	// New builds a device with the given geometry. File-backed devices live
	// in t.TempDir() and are closed (and their images removed) on cleanup;
	// simulator devices need no cleanup but are closed anyway to keep the
	// lifecycle uniform.
	New func(t *testing.T, g device.Geometry) device.Device
}

// Backends returns every implementation of the device contract, opened the
// way every harness opens them: through internal/backend.
func Backends() []Backend {
	open := func(t *testing.T, spec backend.Spec, g device.Geometry) device.Device {
		d, err := spec.Open(g)
		if err != nil {
			t.Fatalf("open %v: %v", spec, err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	return []Backend{
		{Name: "sim", New: func(t *testing.T, g device.Geometry) device.Device {
			return open(t, backend.Sim(), g)
		}},
		{Name: "file", New: func(t *testing.T, g device.Geometry) device.Device {
			return open(t, backend.File(filepath.Join(t.TempDir(), "nemo.img")), g)
		}},
	}
}

// Run runs fn as a subtest per backend. The subtests share nothing: each
// builds its own devices through the Backend it receives.
func Run(t *testing.T, fn func(t *testing.T, b Backend)) {
	for _, b := range Backends() {
		t.Run(b.Name, func(t *testing.T) { fn(t, b) })
	}
}
