package flashsim

import (
	"errors"
	"fmt"
	"testing"
)

func small() *Device {
	return New(Config{PageSize: 512, PagesPerZone: 4, Zones: 4})
}

func TestAppendReadRoundTrip(t *testing.T) {
	d := small()
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i)
	}
	page, _, err := d.AppendPage(0, data)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if _, err := d.ReadPage(page, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(data) {
		t.Fatal("read data differs from written data")
	}
}

func TestShortWritePadsWithZeros(t *testing.T) {
	d := small()
	page, _, err := d.AppendPage(0, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if _, err := d.ReadPage(page, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatal("payload lost")
	}
	for i := 3; i < 512; i++ {
		if buf[i] != 0 {
			t.Fatalf("byte %d not zero-padded", i)
		}
	}
}

func TestZoneFullRejectsWrites(t *testing.T) {
	d := small()
	for i := 0; i < 4; i++ {
		if _, _, err := d.AppendPage(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !d.ZoneFull(1) {
		t.Fatal("zone should be full")
	}
	if _, _, err := d.AppendPage(1, nil); err == nil {
		t.Fatal("append to full zone should fail")
	}
}

func TestResetZoneRewinds(t *testing.T) {
	d := small()
	d.AppendPage(2, []byte{42})
	if _, err := d.ResetZone(2); err != nil {
		t.Fatal(err)
	}
	if d.ZoneWP(2) != 0 {
		t.Fatal("write pointer not rewound")
	}
	buf := make([]byte, 512)
	if _, err := d.ReadPage(d.PageAddr(2, 0), buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("reset zone should read zeroes")
	}
}

func TestAppendMultiplePages(t *testing.T) {
	d := small()
	data := make([]byte, 512*3)
	for i := range data {
		data[i] = byte(i / 512)
	}
	first, _, err := d.Append(3, data)
	if err != nil {
		t.Fatal(err)
	}
	if d.ZoneWP(3) != 3 {
		t.Fatalf("wp = %d, want 3", d.ZoneWP(3))
	}
	buf := make([]byte, 512)
	for p := 0; p < 3; p++ {
		d.ReadPage(first+p, buf)
		if buf[0] != byte(p) {
			t.Fatalf("page %d holds wrong data", p)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	d := small()
	d.AppendPage(0, []byte{1})
	d.AppendPage(0, []byte{2})
	buf := make([]byte, 512)
	d.ReadPage(0, buf)
	d.ResetZone(0)
	s := d.Stats()
	if s.PagesWritten != 2 || s.PagesRead != 1 || s.ZoneResets != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesWritten != 1024 || s.BytesRead != 512 {
		t.Fatalf("byte stats = %+v", s)
	}
}

func TestLatencyModelAdvances(t *testing.T) {
	// Pages 0 and 8 (the first of each zone) share channel 0.
	d := New(Config{PageSize: 512, PagesPerZone: 8, Zones: 2})
	_, done1, _ := d.AppendPage(0, []byte{1})
	if done1 != programLatency {
		t.Fatalf("first program done = %v, want %v", done1, programLatency)
	}
	// Same channel: second op queues behind the first.
	_, done2, _ := d.AppendPage(1, []byte{2})
	if done2 != 2*programLatency {
		t.Fatalf("second program done = %v, want %v", done2, 2*programLatency)
	}
	buf := make([]byte, 512)
	done3, _ := d.ReadPage(0, buf)
	if done3 != 2*programLatency+readLatency {
		t.Fatalf("read done = %v, want %v", done3, 2*programLatency+readLatency)
	}
}

func TestChannelParallelism(t *testing.T) {
	d := New(Config{PageSize: 512, PagesPerZone: 8, Zones: 2})
	for i := 0; i < 4; i++ {
		d.AppendPage(0, []byte{byte(i)})
	}
	// Pages 0..3 land on distinct channels: parallel reads finish together.
	pages := []int{0, 1, 2, 3}
	bufs := make([][]byte, 4)
	for i := range bufs {
		bufs[i] = make([]byte, 512)
	}
	done, err := d.ReadPages(pages, bufs)
	if err != nil {
		t.Fatal(err)
	}
	// All reads start after the programs, one program and one read per
	// channel: done = program + read on every channel at once.
	if done != programLatency+readLatency {
		t.Fatalf("parallel reads took %v, want %v (one program and one read)", done, programLatency+readLatency)
	}
}

func TestReadFaultInjection(t *testing.T) {
	d := small()
	d.AppendPage(0, []byte{1})
	injected := errors.New("uncorrectable ECC")
	d.SetReadFault(func(page int) error {
		if page == 0 {
			return injected
		}
		return nil
	})
	buf := make([]byte, 512)
	if _, err := d.ReadPage(0, buf); !errors.Is(err, injected) {
		t.Fatalf("expected injected fault, got %v", err)
	}
	d.SetReadFault(nil)
	if _, err := d.ReadPage(0, buf); err != nil {
		t.Fatalf("fault not cleared: %v", err)
	}
}

func TestBoundsChecks(t *testing.T) {
	d := small()
	buf := make([]byte, 512)
	if _, err := d.ReadPage(-1, buf); err == nil {
		t.Fatal("negative page read should fail")
	}
	if _, err := d.ReadPage(d.TotalPages(), buf); err == nil {
		t.Fatal("out-of-range read should fail")
	}
	if _, _, err := d.AppendPage(99, nil); err == nil {
		t.Fatal("append to invalid zone should fail")
	}
	if _, err := d.ResetZone(-1); err == nil {
		t.Fatal("reset of invalid zone should fail")
	}
	if _, err := d.ReadPage(0, make([]byte, 10)); err == nil {
		t.Fatal("short buffer read should fail")
	}
	if _, _, err := d.AppendPage(0, make([]byte, 1024)); err == nil {
		t.Fatal("oversized write should fail")
	}
}

func TestDefaults(t *testing.T) {
	d := New(Config{})
	cfg := d.Config()
	if cfg.PageSize != 4096 || cfg.PagesPerZone != 256 || cfg.Zones != 64 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if d.CapacityBytes() != int64(64*256*4096) {
		t.Fatalf("capacity = %d", d.CapacityBytes())
	}
}

func TestAddressingHelpers(t *testing.T) {
	d := small()
	page := d.PageAddr(2, 3)
	if d.ZoneOf(page) != 2 || d.OffsetOf(page) != 3 {
		t.Fatal("addressing round trip failed")
	}
}

func TestWriteFaultInjection(t *testing.T) {
	d := small()
	calls := 0
	d.SetWriteFault(func(zone int) error {
		calls++
		if zone == 1 {
			return fmt.Errorf("injected fault on zone %d", zone)
		}
		return nil
	})
	if _, _, err := d.AppendPage(0, []byte("ok")); err != nil {
		t.Fatalf("hooked append to healthy zone failed: %v", err)
	}
	if _, _, err := d.AppendPage(1, []byte("bad")); err == nil {
		t.Fatal("append to faulted zone should fail")
	}
	if calls != 2 {
		t.Fatalf("hook ran %d times, want 2", calls)
	}
	// A faulted append must not move the write pointer or the counters.
	if wp := d.ZoneWP(1); wp != 0 {
		t.Fatalf("faulted zone advanced its write pointer to %d", wp)
	}
	if got := d.Stats().PagesWritten; got != 1 {
		t.Fatalf("pages written = %d, want 1", got)
	}
	d.SetWriteFault(nil)
	if _, _, err := d.AppendPage(1, []byte("recovered")); err != nil {
		t.Fatalf("append after clearing fault failed: %v", err)
	}
}
