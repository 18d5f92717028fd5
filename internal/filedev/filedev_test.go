package filedev

// Zone-state tests for the file-backed device: the contract cases that
// distinguish a zoned device from a plain file — append past ZoneFull,
// reads of unwritten pages, resetting an open zone, crash-reopen
// determinism — plus the fault-hook and O_DIRECT plumbing, and the read
// mapping's coherence with appends, resets and Close.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"nemo/internal/device"
)

// testConfig is a small geometry so zones fill quickly.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Path:         filepath.Join(t.TempDir(), "nemo-test.img"),
		PageSize:     512,
		PagesPerZone: 4,
		Zones:        8,
	}
}

func openTest(t *testing.T, cfg Config) *Device {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// pageOf builds a page-sized payload with a recognizable fill byte.
func pageOf(b byte, n int) []byte {
	return bytes.Repeat([]byte{b}, n)
}

func TestAppendPastZoneFull(t *testing.T) {
	d := openTest(t, testConfig(t))
	for i := 0; i < d.PagesPerZone(); i++ {
		if _, _, err := d.AppendPage(0, pageOf(byte(i+1), d.PageSize())); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if !d.ZoneFull(0) {
		t.Fatal("zone 0 not full after PagesPerZone appends")
	}
	_, _, err := d.AppendPage(0, pageOf(0xEE, d.PageSize()))
	if err == nil {
		t.Fatal("append into a full zone succeeded")
	}
	if !strings.Contains(err.Error(), "full") {
		t.Fatalf("append into full zone: error %q does not mention fullness", err)
	}
	// The failed append must not have advanced the write pointer or
	// clobbered the last written page.
	if wp := d.ZoneWP(0); wp != d.PagesPerZone() {
		t.Fatalf("wp = %d after rejected append, want %d", wp, d.PagesPerZone())
	}
	dst := make([]byte, d.PageSize())
	if _, err := d.ReadPage(d.PageAddr(0, d.PagesPerZone()-1), dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, pageOf(byte(d.PagesPerZone()), d.PageSize())) {
		t.Fatal("last page corrupted by rejected append")
	}
}

func TestReadUnwrittenPageYieldsZeroes(t *testing.T) {
	cfg := testConfig(t)
	d := openTest(t, cfg)

	// Poison the image file directly so a read that consulted file
	// contents instead of the write pointer would be caught.
	f, err := os.OpenFile(cfg.Path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(pageOf(0xAA, cfg.PageSize*cfg.PagesPerZone), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	dst := pageOf(0xBB, cfg.PageSize) // dirty dst: zeros must be written, not skipped
	if _, err := d.ReadPage(d.PageAddr(0, 2), dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, cfg.PageSize)) {
		t.Fatal("read of unwritten page returned file garbage, want zeroes")
	}

	// Same zone, below the write pointer: real data comes back while the
	// page at the wp still reads as zeroes.
	if _, _, err := d.AppendPage(0, pageOf(0x11, cfg.PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadPage(d.PageAddr(0, 0), dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, pageOf(0x11, cfg.PageSize)) {
		t.Fatal("read below wp did not return written data")
	}
	copy(dst, pageOf(0xBB, cfg.PageSize))
	if _, err := d.ReadPage(d.PageAddr(0, 1), dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, cfg.PageSize)) {
		t.Fatal("read at wp returned garbage, want zeroes")
	}
}

func TestShortAppendZeroPadsPage(t *testing.T) {
	d := openTest(t, testConfig(t))
	short := pageOf(0x7F, 100)
	page, _, err := d.AppendPage(0, short)
	if err != nil {
		t.Fatal(err)
	}
	dst := pageOf(0xCC, d.PageSize())
	if _, err := d.ReadPage(page, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:100], short) {
		t.Fatal("short append lost payload")
	}
	if !bytes.Equal(dst[100:], make([]byte, d.PageSize()-100)) {
		t.Fatal("short append tail not zero-padded")
	}
}

func TestResetZoneReopensAndZeroes(t *testing.T) {
	d := openTest(t, testConfig(t))
	// Open (partially written) zone: reset must drop it from the open count
	// and rewind the write pointer.
	if _, _, err := d.AppendPage(3, pageOf(0x42, d.PageSize())); err != nil {
		t.Fatal(err)
	}
	if d.OpenZones() != 1 {
		t.Fatalf("OpenZones = %d, want 1", d.OpenZones())
	}
	if _, err := d.ResetZone(3); err != nil {
		t.Fatal(err)
	}
	if d.OpenZones() != 0 {
		t.Fatalf("OpenZones = %d after reset, want 0", d.OpenZones())
	}
	if wp := d.ZoneWP(3); wp != 0 {
		t.Fatalf("wp = %d after reset, want 0", wp)
	}
	// Old contents must be unreadable even though the bytes may linger in
	// the file: the write pointer is authoritative.
	dst := pageOf(0xDD, d.PageSize())
	if _, err := d.ReadPage(d.PageAddr(3, 0), dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, d.PageSize())) {
		t.Fatal("reset zone still readable")
	}
	// The zone is writable again, and a full-zone reset also works.
	for i := 0; i < d.PagesPerZone(); i++ {
		if _, _, err := d.AppendPage(3, pageOf(0x43, d.PageSize())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.ResetZone(3); err != nil {
		t.Fatal(err)
	}
	if d.OpenZones() != 0 {
		t.Fatalf("OpenZones = %d after full-zone reset, want 0", d.OpenZones())
	}
	st := d.Stats()
	if st.ZoneResets != 2 {
		t.Fatalf("ZoneResets = %d, want 2", st.ZoneResets)
	}
}

func TestMaxOpenZonesEnforced(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxOpenZones = 2
	d := openTest(t, cfg)
	for z := 0; z < 2; z++ {
		if _, _, err := d.AppendPage(z, pageOf(1, cfg.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := d.AppendPage(2, pageOf(1, cfg.PageSize))
	if !errors.Is(err, device.ErrTooManyOpenZones) {
		t.Fatalf("third open zone: err = %v, want ErrTooManyOpenZones", err)
	}
	// Filling a zone closes it and frees a slot.
	for d.ZoneWP(0) < cfg.PagesPerZone {
		if _, _, err := d.AppendPage(0, pageOf(1, cfg.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := d.AppendPage(2, pageOf(1, cfg.PageSize)); err != nil {
		t.Fatalf("open after slot freed: %v", err)
	}
}

// TestCrashReopenRebuildsEmpty pins the documented crash-reopen choice:
// Open always reformats — a fresh Open of an existing image deterministically
// rebuilds every write pointer to zero (no metadata is persisted), so prior
// contents are unreadable and the capacity is fully writable again.
func TestCrashReopenRebuildsEmpty(t *testing.T) {
	cfg := testConfig(t)
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 3; z++ {
		if _, _, err := d.AppendPage(z, pageOf(0x55, cfg.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": close without RemoveOnClose, leaving the image file behind.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cfg.Path); err != nil {
		t.Fatalf("image missing after close: %v", err)
	}

	d2 := openTest(t, cfg)
	for z := 0; z < cfg.Zones; z++ {
		if wp := d2.ZoneWP(z); wp != 0 {
			t.Fatalf("zone %d wp = %d after reopen, want 0", z, wp)
		}
	}
	if d2.OpenZones() != 0 {
		t.Fatalf("OpenZones = %d after reopen, want 0", d2.OpenZones())
	}
	dst := pageOf(0xEE, cfg.PageSize)
	if _, err := d2.ReadPage(0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, cfg.PageSize)) {
		t.Fatal("pre-crash contents readable after reopen")
	}
	// And the whole device is writable: stale file bytes never surface.
	for z := 0; z < cfg.Zones; z++ {
		for i := 0; i < cfg.PagesPerZone; i++ {
			if _, _, err := d2.AppendPage(z, pageOf(0x66, cfg.PageSize)); err != nil {
				t.Fatalf("zone %d page %d after reopen: %v", z, i, err)
			}
		}
	}
}

func TestCloseIdempotentAndRemoveOnClose(t *testing.T) {
	cfg := testConfig(t)
	cfg.RemoveOnClose = true
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cfg.Path); !os.IsNotExist(err) {
		t.Fatalf("image still present after RemoveOnClose close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestFaultHooksOutsideZoneLocks pins the blockable-fault contract shared
// with flashsim: a fault hook that parks its caller must not hold the zone
// lock, so I/O on other zones — and state inspection — proceeds.
func TestFaultHooksOutsideZoneLocks(t *testing.T) {
	d := openTest(t, testConfig(t))
	injected := errors.New("injected write fault")

	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	d.SetWriteFault(func(zone int) error {
		if zone == 0 {
			entered <- struct{}{}
			<-block // park while blocked: must not hold zone 0's lock
			return injected
		}
		return nil
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := d.AppendPage(0, pageOf(1, d.PageSize())); !errors.Is(err, injected) {
			t.Errorf("faulted append: err = %v, want injected fault", err)
		}
	}()
	<-entered
	// While the zone-0 append is parked in its hook, zone 0 state reads and
	// other-zone appends must not deadlock.
	if wp := d.ZoneWP(0); wp != 0 {
		t.Fatalf("wp = %d while append parked in fault hook, want 0", wp)
	}
	if _, _, err := d.AppendPage(1, pageOf(1, d.PageSize())); err != nil {
		t.Fatal(err)
	}
	close(block)
	wg.Wait()
	// The faulted append happened before any state change.
	if wp := d.ZoneWP(0); wp != 0 {
		t.Fatalf("wp = %d after faulted append, want 0", wp)
	}

	d.SetWriteFault(nil)
	page, _, err := d.AppendPage(0, pageOf(2, d.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	readErr := errors.New("injected read fault")
	d.SetReadFault(func(p int) error {
		if p == page {
			return readErr
		}
		return nil
	})
	dst := make([]byte, d.PageSize())
	if _, err := d.ReadPage(page, dst); !errors.Is(err, readErr) {
		t.Fatalf("faulted read: err = %v, want injected fault", err)
	}
	d.SetReadFault(nil)
	if _, err := d.ReadPage(page, dst); err != nil {
		t.Fatal(err)
	}
}

func TestReadPagesAndAppendMultiPage(t *testing.T) {
	d := openTest(t, testConfig(t))
	payload := make([]byte, d.PageSize()*2+100) // 2 full pages + a short tail
	for i := range payload {
		payload[i] = byte(i)
	}
	first, _, err := d.Append(0, payload)
	if err != nil {
		t.Fatal(err)
	}
	if wp := d.ZoneWP(0); wp != 3 {
		t.Fatalf("wp = %d after 2.2-page append, want 3", wp)
	}
	pages := []int{first, first + 1, first + 2}
	dst := make([][]byte, len(pages))
	for i := range dst {
		dst[i] = make([]byte, d.PageSize())
	}
	if _, err := d.ReadPages(pages, dst); err != nil {
		t.Fatal(err)
	}
	got := append(append(append([]byte{}, dst[0]...), dst[1]...), dst[2]...)
	want := make([]byte, 3*d.PageSize())
	copy(want, payload)
	if !bytes.Equal(got, want) {
		t.Fatal("multi-page append/read round trip mismatch")
	}
}

// readRun reads n consecutive pages from first into one buffer, one run.
func readRun(d *Device, first, n int) ([]byte, error) {
	slab := make([]byte, n*d.PageSize())
	pages, bufs := make([]int, n), make([][]byte, n)
	for i := range pages {
		pages[i], bufs[i] = first+i, slab[i*d.PageSize():(i+1)*d.PageSize()]
	}
	_, err := d.ReadPages(pages, bufs)
	return slab, err
}

// TestMappedReadsFollowAppendsAndResets pins the read mapping's coherence
// with the write path: a zone rewritten after a reset (hole punch, then
// pwrite under the mapping) reads its new bytes, a foreign write past the
// write pointer — visible through the mapping — never reaches a read, and a
// warm reopen reads the pre-close bytes through its own new mapping.
func TestMappedReadsFollowAppendsAndResets(t *testing.T) {
	cfg := testConfig(t)
	cfg.Persist = true
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && d.mapped == nil {
		t.Fatal("buffered device on Linux holds no read mapping")
	}
	n := cfg.PagesPerZone - 1
	patA, patB := make([]byte, n*cfg.PageSize), make([]byte, n*cfg.PageSize)
	for i := range patA {
		patA[i], patB[i] = byte(i*3+1), byte(i*5+2)
	}
	check := func(d *Device, first int, want []byte, what string) {
		t.Helper()
		got, err := readRun(d, first, len(want)/cfg.PageSize)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: read returned other bytes", what)
		}
	}

	first, _, err := d.Append(2, patA)
	if err != nil {
		t.Fatal(err)
	}
	check(d, first, patA, "pattern A")
	if _, err := d.ResetZone(2); err != nil {
		t.Fatal(err)
	}
	check(d, first, make([]byte, len(patA)), "reset zone")
	if again, _, err := d.Append(2, patB); err != nil || again != first {
		t.Fatalf("rewrite after reset: page %d, err %v; want page %d", again, err, first)
	}
	check(d, first, patB, "pattern B over A's pages")

	// A foreign write to the zone's last page, at its write pointer: the
	// mapping shows the bytes, the read must not.
	f, err := os.OpenFile(cfg.Path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt(pageOf(0xAA, cfg.PageSize), d.byteOff(first+n))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	check(d, first, append(append([]byte{}, patB...), make([]byte, cfg.PageSize)...), "foreign write past the write pointer")

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openTest(t, cfg)
	if !d2.Restored() {
		t.Fatal("clean Persist close did not reopen warm")
	}
	check(d2, first, patB, "warm reopen")
}

// TestReadRacingCloseErrsNotFaults closes the device under concurrent
// readers: every read returns the appended bytes or an error wrapping
// os.ErrClosed — none touches an unmapped range — and once Close has
// returned, reads fail the same way.
func TestReadRacingCloseErrsNotFaults(t *testing.T) {
	cfg := testConfig(t)
	d := openTest(t, cfg)
	want := make([]byte, cfg.Zones*cfg.PagesPerZone*cfg.PageSize)
	for i := range want {
		want[i] = byte(i*7 + i/cfg.PageSize)
	}
	zoneBytes := cfg.PagesPerZone * cfg.PageSize
	for z := 0; z < cfg.Zones; z++ {
		if _, _, err := d.Append(z, want[z*zoneBytes:(z+1)*zoneBytes]); err != nil {
			t.Fatal(err)
		}
	}

	const readers = 4
	var started, wg sync.WaitGroup
	started.Add(readers)
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				z := (r + i) % cfg.Zones
				got, err := readRun(d, z*cfg.PagesPerZone, cfg.PagesPerZone)
				if i == 0 {
					started.Done()
				}
				if err != nil {
					if !errors.Is(err, os.ErrClosed) {
						t.Errorf("read racing Close: %v, want os.ErrClosed", err)
					}
					return
				}
				if !bytes.Equal(got, want[z*zoneBytes:(z+1)*zoneBytes]) {
					t.Errorf("read racing Close: zone %d returned other bytes", z)
					return
				}
			}
		}()
	}
	started.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := d.ReadPage(0, make([]byte, cfg.PageSize)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("ReadPage after Close: %v, want os.ErrClosed", err)
	}
}

func TestOpenDirect(t *testing.T) {
	if !directSupported {
		t.Skip("O_DIRECT not supported on this platform")
	}
	cfg := Config{
		Path:         filepath.Join(t.TempDir(), "nemo-direct.img"),
		PageSize:     4096,
		PagesPerZone: 4,
		Zones:        4,
		Direct:       true,
	}
	d, err := Open(cfg)
	if err != nil {
		// tmpfs (common for t.TempDir on CI) rejects O_DIRECT; that is a
		// property of the filesystem, not a bug in the device.
		t.Skipf("O_DIRECT open failed on this filesystem: %v", err)
	}
	defer d.Close()
	if d.mapped != nil {
		t.Fatal("Direct device holds a read mapping; its reads must stay preads")
	}
	payload := pageOf(0x5A, 1000) // short append exercises the bounce buffer
	page, _, err := d.AppendPage(0, payload)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, cfg.PageSize)
	if _, err := d.ReadPage(page, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:1000], payload) || !bytes.Equal(dst[1000:], make([]byte, cfg.PageSize-1000)) {
		t.Fatal("O_DIRECT round trip mismatch")
	}

	// A multi-page run with a short tail is one bounced pwrite, and reading
	// it back into adjacent slices of one buffer one bounced pread.
	run := make([]byte, 2*cfg.PageSize+300)
	for i := range run {
		run[i] = byte(i * 7)
	}
	first, _, err := d.Append(1, run)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := readRun(d, first, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(slab))
	copy(want, run)
	if !bytes.Equal(slab, want) {
		t.Fatal("O_DIRECT multi-page run round trip mismatch")
	}

	// Direct mode with a sub-sector page size must be rejected at Open.
	bad := cfg
	bad.Path = filepath.Join(t.TempDir(), "bad.img")
	bad.PageSize = 512
	if _, err := Open(bad); err == nil {
		t.Fatal("Open accepted Direct with PageSize 512")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open accepted an empty path")
	}
	cfg := testConfig(t)
	cfg.Zones = -1
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open accepted negative zone count")
	}
}

func TestStatsCount(t *testing.T) {
	d := openTest(t, testConfig(t))
	for i := 0; i < 3; i++ {
		if _, _, err := d.AppendPage(0, pageOf(1, d.PageSize())); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, d.PageSize())
	for i := 0; i < 2; i++ {
		if _, err := d.ReadPage(i, dst); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.PagesWritten != 3 || st.PagesRead != 2 {
		t.Fatalf("stats = %+v, want 3 written / 2 read", st)
	}
	if st.BytesWritten != uint64(3*d.PageSize()) || st.BytesRead != uint64(2*d.PageSize()) {
		t.Fatalf("byte stats = %+v", st)
	}
}

// TestErrorSpellingsMatchContract keeps the out-of-range/oversize error
// behaviour aligned with the simulator so engine code can treat both
// uniformly.
func TestErrorSpellingsMatchContract(t *testing.T) {
	d := openTest(t, testConfig(t))
	cases := []error{
		func() error { _, _, err := d.AppendPage(-1, nil); return err }(),
		func() error { _, _, err := d.AppendPage(d.Zones(), nil); return err }(),
		func() error { _, _, err := d.AppendPage(0, make([]byte, d.PageSize()+1)); return err }(),
		func() error { _, err := d.ReadPage(-1, make([]byte, d.PageSize())); return err }(),
		func() error { _, err := d.ReadPage(d.TotalPages(), make([]byte, d.PageSize())); return err }(),
		func() error { _, err := d.ReadPage(0, make([]byte, d.PageSize()-1)); return err }(),
		func() error { _, err := d.ResetZone(d.Zones()); return err }(),
	}
	for i, err := range cases {
		if err == nil {
			t.Fatalf("case %d: invalid call succeeded", i)
		}
	}
}
