package ftl

import (
	"fmt"
	"math/rand"
	"testing"

	"nemo/internal/flashsim"
)

func mkFTL(t *testing.T, zones int, op float64) (*flashsim.Device, *FTL) {
	t.Helper()
	dev := flashsim.New(flashsim.Config{PageSize: 256, PagesPerZone: 8, Zones: zones})
	f, err := New(dev, 0, zones, op)
	if err != nil {
		t.Fatal(err)
	}
	return dev, f
}

func pageData(f *FTL, lpn, version int) []byte {
	b := make([]byte, 256)
	copy(b, fmt.Sprintf("lpn=%d v=%d", lpn, version))
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, f := mkFTL(t, 8, 0.3)
	buf := make([]byte, 256)
	for lpn := 0; lpn < f.LogicalPages(); lpn++ {
		if _, err := f.Write(lpn, pageData(f, lpn, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for lpn := 0; lpn < f.LogicalPages(); lpn++ {
		_, mapped, err := f.Read(lpn, buf)
		if err != nil || !mapped {
			t.Fatalf("read lpn %d: mapped=%v err=%v", lpn, mapped, err)
		}
		if string(buf[:20]) != string(pageData(f, lpn, 0)[:20]) {
			t.Fatalf("lpn %d data mismatch", lpn)
		}
	}
}

func TestUnmappedReadZeroFills(t *testing.T) {
	_, f := mkFTL(t, 8, 0.3)
	buf := make([]byte, 256)
	buf[0] = 0xff
	_, mapped, err := f.Read(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if mapped || buf[0] != 0 {
		t.Fatal("unmapped read should zero-fill and report unmapped")
	}
}

func TestOverwriteSurvivesGC(t *testing.T) {
	_, f := mkFTL(t, 8, 0.4)
	rng := rand.New(rand.NewSource(42))
	versions := make([]int, f.LogicalPages())
	// Enough random overwrites to force many GC cycles.
	for i := 0; i < f.LogicalPages()*30; i++ {
		lpn := rng.Intn(f.LogicalPages())
		versions[lpn]++
		if _, err := f.Write(lpn, pageData(f, lpn, versions[lpn])); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 256)
	for lpn, v := range versions {
		if v == 0 {
			continue
		}
		_, mapped, err := f.Read(lpn, buf)
		if err != nil || !mapped {
			t.Fatalf("lpn %d unreadable after GC", lpn)
		}
		want := pageData(f, lpn, v)
		if string(buf[:24]) != string(want[:24]) {
			t.Fatalf("lpn %d: got %q want %q", lpn, buf[:24], want[:24])
		}
	}
	st := f.Stats()
	if st.GCRuns == 0 || st.GCPagesWritten == 0 {
		t.Fatalf("expected GC activity, got %+v", st)
	}
	if st.DLWA() <= 1.0 {
		t.Fatalf("DLWA = %v, want > 1 under random overwrites", st.DLWA())
	}
}

func TestHigherOPLowersDLWA(t *testing.T) {
	dlwa := func(op float64) float64 {
		_, f := mkFTL(t, 16, op)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < f.LogicalPages()*40; i++ {
			lpn := rng.Intn(f.LogicalPages())
			if _, err := f.Write(lpn, pageData(f, lpn, i)); err != nil {
				t.Fatal(err)
			}
		}
		return f.Stats().DLWA()
	}
	low := dlwa(0.15)
	high := dlwa(0.5)
	if high >= low {
		t.Fatalf("DLWA at 50%% OP (%v) should be below DLWA at 15%% OP (%v)", high, low)
	}
}

func TestConfigValidation(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 256, PagesPerZone: 8, Zones: 8})
	if _, err := New(dev, 0, 8, 0); err == nil {
		t.Fatal("zero OP should be rejected")
	}
	if _, err := New(dev, 0, 8, 1.5); err == nil {
		t.Fatal("OP > 1 should be rejected")
	}
	if _, err := New(dev, 0, 100, 0.3); err == nil {
		t.Fatal("zone range beyond device should be rejected")
	}
	if _, err := New(dev, 0, 3, 0.3); err == nil {
		t.Fatal("too few zones should be rejected")
	}
}

func TestWriteBoundsCheck(t *testing.T) {
	_, f := mkFTL(t, 8, 0.3)
	if _, err := f.Write(-1, make([]byte, 256)); err == nil {
		t.Fatal("negative lpn should fail")
	}
	if _, err := f.Write(f.LogicalPages(), make([]byte, 256)); err == nil {
		t.Fatal("out-of-range lpn should fail")
	}
}

func TestSubZoneRange(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 256, PagesPerZone: 8, Zones: 16})
	f, err := New(dev, 8, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	// The FTL must only touch zones ≥ 8.
	for z := 0; z < 8; z++ {
		if dev.ZoneWP(z) != 0 {
			t.Fatalf("FTL wrote outside its range (zone %d)", z)
		}
	}
}
