package enginetest_test

import (
	"fmt"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/fairywren"
	"nemo/internal/flashsim"
	"nemo/internal/kangaroo"
	"nemo/internal/logcache"
	"nemo/internal/setcache"
)

// TestBaselineReadErrorsCounted checks the one promise
// cachelib.Stats.ReadErrors makes, for each baseline: a device read that
// fails on the GET path is served as a miss, never silently. After a
// fault-free warm-up, every device read is made to fail while keys written
// long ago — on flash or evicted, never in an engine's open page buffer —
// are looked up: nothing may hit, nothing may count as a flash read, and
// ReadErrors must grow by exactly the number of reads the device refused.
// With the fault cleared the same lookups hit again.
func TestBaselineReadErrorsCounted(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(dev device.Device) (cachelib.Engine, error)
	}{
		{"Set", func(d device.Device) (cachelib.Engine, error) { return setcache.New(setcache.Config{Device: d}) }},
		{"KG", func(d device.Device) (cachelib.Engine, error) { return kangaroo.New(kangaroo.Config{Device: d}) }},
		{"FW", func(d device.Device) (cachelib.Engine, error) { return fairywren.New(fairywren.Config{Device: d}) }},
		{"Log", func(d device.Device) (cachelib.Engine, error) { return logcache.New(logcache.Config{Device: d}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 32})
			e, err := tc.mk(dev)
			if err != nil {
				t.Fatal(err)
			}
			readErrorsCounted(t, dev, e)
		})
	}
}

func readErrorsCounted(t *testing.T, dev device.Device, e cachelib.Engine) {
	t.Helper()
	defer e.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	for i := 0; i < 1200; i++ {
		if err := e.Set(key(i), []byte(fmt.Sprintf("val-%08d-xxxxxxxxxxxxxxxx", i))); err != nil {
			t.Fatal(err)
		}
	}
	lookups := func() {
		for i := 0; i < 600; i++ {
			e.Get(key(i))
		}
	}
	before := e.Stats()
	var refused uint64
	dev.SetReadFault(func(int) error {
		refused++
		return device.ErrInjected
	})
	lookups()
	dev.SetReadFault(nil)
	faulted := e.Stats()
	if refused == 0 {
		t.Fatal("no lookup reached the device: the warm-up left nothing on flash")
	}
	if got := faulted.ReadErrors - before.ReadErrors; got != refused {
		t.Fatalf("ReadErrors grew by %d, the device refused %d reads", got, refused)
	}
	if faulted.Hits != before.Hits || faulted.FlashReadOps != before.FlashReadOps {
		t.Fatalf("failed reads were served: hits %d → %d, flash reads %d → %d",
			before.Hits, faulted.Hits, before.FlashReadOps, faulted.FlashReadOps)
	}
	lookups()
	after := e.Stats()
	if after.Hits == faulted.Hits {
		t.Fatal("no hit after the fault was cleared")
	}
	if after.ReadErrors != faulted.ReadErrors {
		t.Fatalf("ReadErrors grew by %d with no fault armed", after.ReadErrors-faulted.ReadErrors)
	}
}
