package hlog

import (
	"errors"
	"testing"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/flashsim"
	"nemo/internal/metrics"
	"nemo/internal/setblock"
)

func mkFront(t *testing.T) (*flashsim.Device, *Front, *cachelib.Stats) {
	t.Helper()
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 4, Zones: 4})
	st, hist := new(cachelib.Stats), new(metrics.Histogram)
	f, err := NewFront(dev, 0, 4, st, hist)
	if err != nil {
		t.Fatal(err)
	}
	return dev, f, st
}

// TestFrontSetMigratesOnlyWhenFull pins the retry loop's one condition:
// migrate makes room when the log is full and only then — a device error
// from the append is the caller's, not a reason to drain a zone.
func TestFrontSetMigratesOnlyWhenFull(t *testing.T) {
	dev, f, st := mkFront(t)
	migrations := 0
	migrate := func(int32, []setblock.Entry) error {
		migrations++
		return nil
	}
	i := 0
	for ; migrations == 0; i++ {
		set, fp, k, v := obj(i)
		if err := f.Set(set, fp, k, v, migrate); err != nil {
			t.Fatal(err)
		}
	}
	if st.Sets != uint64(i) {
		t.Fatalf("Sets = %d after %d sets", st.Sets, i)
	}
	drained := migrations
	dev.SetWriteFault(func(int) error { return device.ErrInjected })
	var err error
	for n := 0; err == nil && n < 100; n, i = n+1, i+1 {
		set, fp, k, v := obj(i)
		err = f.Set(set, fp, k, v, migrate)
	}
	if !errors.Is(err, device.ErrInjected) {
		t.Fatalf("Set under a write fault returned %v", err)
	}
	if migrations != drained {
		t.Fatalf("migrate ran %d more times; the failed append must not trigger it", migrations-drained)
	}
}

// TestFrontGetReadErrorStopsAtLog pins the read-error contract: a log page
// that cannot be read makes the GET a counted miss, and the set tier — which
// may hold an older copy — is not asked.
func TestFrontGetReadErrorStopsAtLog(t *testing.T) {
	dev, f, st := mkFront(t)
	for i := 0; i < 40; i++ { // enough to push object 0 out of the page buffer
		set, fp, k, v := obj(i)
		if err := f.Set(set, fp, k, v, func(int32, []setblock.Entry) error { return errors.New("log full") }); err != nil {
			t.Fatal(err)
		}
	}
	set, fp, k, _ := obj(0)
	asked := false
	setTier := func(time.Duration) ([]byte, bool) { asked = true; return nil, false }
	dev.SetReadFault(func(int) error { return device.ErrInjected })
	if _, hit := f.Get(set, fp, k, setTier); hit || asked {
		t.Fatalf("unreadable log page: hit=%v, set tier asked=%v", hit, asked)
	}
	if st.ReadErrors != 1 || st.Hits != 0 || st.FlashReadOps != 0 {
		t.Fatalf("accounting after a failed log read: %+v", *st)
	}
	dev.SetReadFault(nil)
	if _, hit := f.Get(set, fp, k, setTier); !hit || asked {
		t.Fatalf("readable log page: hit=%v, set tier asked=%v", hit, asked)
	}
	if st.Gets != 2 || st.Hits != 1 || st.FlashReadOps != 1 {
		t.Fatalf("accounting after a log hit: %+v", *st)
	}
}
