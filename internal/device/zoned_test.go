package device_test

// Tests of the Zoned state machine on its own: over a medium that fails
// (which neither real backend can provide), from adopted warm-open state,
// and with a read parked inside its fault hook. They reuse the differential
// harness and model of differential_test.go.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nemo/internal/device"
	"nemo/internal/devtest"
	"nemo/internal/vtime"
)

// flakyMedia is the least helpful Media the contract allows: a run's pages
// are stored one at a time and every nth page stored fails, leaving the
// run's earlier pages behind past the write pointer; Erase reclaims nothing
// (stale bytes stay behind, as on a file image whose hole-punch failed); and
// a Load that reaches a page never stored is an error. Whatever it gets
// wrong, Zoned has to get right.
type flakyMedia struct {
	g      device.Geometry
	clock  *vtime.Clock
	pages  map[int][]byte
	nth    int
	stores int
	warned bool // Mutating ran, so Store and Erase may follow
}

func (f *flakyMedia) Store(page int, data []byte) error {
	if !f.warned {
		return errors.New("flaky: Store before Mutating")
	}
	ps := f.g.PageSize
	for i := 0; i == 0 || i*ps < len(data); i++ {
		if f.stores++; f.stores%f.nth == 0 {
			return fmt.Errorf("flaky: medium error after %d pages of the run", i)
		}
		d := data[min(i*ps, len(data)):min((i+1)*ps, len(data))]
		f.pages[page+i] = append(append([]byte(nil), d...), make([]byte, ps-len(d))...)
	}
	return nil
}

func (f *flakyMedia) Load(page int, dst []byte) error {
	ps := f.g.PageSize
	if len(dst) == 0 || len(dst)%ps != 0 {
		return fmt.Errorf("flaky: load of %d bytes, not a run of %d-byte pages", len(dst), ps)
	}
	for i := 0; i*ps < len(dst); i++ {
		if f.pages[page+i] == nil {
			return fmt.Errorf("flaky: load of unwritten page %d", page+i)
		}
		copy(dst[i*ps:], f.pages[page+i])
	}
	return nil
}

func (f *flakyMedia) Erase(int)                         {}
func (f *flakyMedia) Mutating()                         { f.warned = true }
func (f *flakyMedia) Done(device.Op, int) time.Duration { return f.clock.Now() }

// zonedDevice completes a bare Zoned to a device.Device.
type zonedDevice struct{ *device.Zoned }

func (zonedDevice) Close() error { return nil }

// TestDifferentialMediaErrors runs the same histories against the state
// machine alone over a failing medium, which neither real backend can
// provide: a failed Store must leave the write pointer, the open-zone
// reservation taken for that append, Stats and Generation.Writes untouched,
// and stale bytes a lazy Erase left behind must never be read back. Every
// history starts from adopted state, the way a warm open hands it in: write
// pointers (an empty, an open and a full zone among them) and a generation.
func TestDifferentialMediaErrors(t *testing.T) {
	for _, maxOpen := range []int{0, 2} {
		g := device.Geometry{PageSize: 512, PagesPerZone: 8, Zones: 6, MaxOpenZones: maxOpen}
		for seed := int64(1); seed <= 6; seed++ {
			clock := &vtime.Clock{}
			media := &flakyMedia{g: g, clock: clock, pages: map[int][]byte{}, nth: 3}
			m := newModel(g, 5)
			m.storeNth = media.nth
			copy(m.wp, []int{0, 3, 8, 0, 1, 0})
			for zone, wp := range m.wp {
				for off := 0; off < wp; off++ {
					page := zone*g.PagesPerZone + off
					m.pages[page] = bytes.Repeat([]byte{byte(page)}, g.PageSize)
					media.pages[page] = m.pages[page]
				}
			}
			start := device.Generation{Boot: 7, Writes: 40}
			z := device.NewZoned("flaky", g, clock, media, start, m.wp)
			if z.Generation() != start {
				t.Fatalf("adopted generation %+v, want %+v", z.Generation(), start)
			}
			runHistory(t, seed, 500, m, []subject{{name: "zoned", dev: zonedDevice{z}}})
		}
	}

	// A run whose Store fails after storing k of its pages leaves them on
	// the medium past the write pointer: the Append fails with nothing
	// moved, and those pages read back as zeroes.
	g := device.Geometry{PageSize: 512, PagesPerZone: 8, Zones: 2, MaxOpenZones: 1}
	for k := 1; k <= 5; k++ {
		clock := &vtime.Clock{}
		media := &flakyMedia{g: g, clock: clock, pages: map[int][]byte{}, nth: k + 1}
		d := zonedDevice{device.NewZoned("flaky", g, clock, media, device.Generation{Boot: 7, Writes: 40}, nil)}
		before := observe(d, 0)
		if _, _, err := d.Append(1, bytes.Repeat([]byte{0x5A}, 6*g.PageSize)); err == nil {
			t.Fatalf("k=%d: a run whose Store failed reported success", k)
		}
		if len(media.pages) != k {
			t.Fatalf("k=%d: the medium holds %d pages of the failed run", k, len(media.pages))
		}
		if got := observe(d, 0); !reflect.DeepEqual(got, before) {
			t.Fatalf("k=%d: a failed run moved the device from\n%+v to\n%+v", k, before, got)
		}
		slab := bytes.Repeat([]byte{0xA5}, 6*g.PageSize)
		pages, dst := make([]int, 6), make([][]byte, 6)
		for i := range pages {
			pages[i], dst[i] = d.PageAddr(1, i), slab[i*g.PageSize:(i+1)*g.PageSize]
		}
		if _, err := d.ReadPages(pages, dst); err != nil {
			t.Fatalf("k=%d: reading past the write pointer: %v", k, err)
		}
		if !bytes.Equal(slab, make([]byte, len(slab))) {
			t.Fatalf("k=%d: pages past the write pointer read back non-zero", k)
		}
	}
}

// TestReadHookRunsOutsideZoneLock parks a read inside its fault hook and
// appends to, then resets, the same zone meanwhile: both need the zone's
// exclusive lock, so they finish only if the hook ran outside it.
func TestReadHookRunsOutsideZoneLock(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		d := b.New(t, faultGeom)
		if _, _, err := d.AppendPage(0, []byte{1}); err != nil {
			t.Fatal(err)
		}
		parked, release := make(chan struct{}), make(chan struct{})
		d.SetReadFault(func(int) error {
			close(parked)
			<-release
			return nil
		})
		readDone := make(chan error, 1) // one send, never blocks the reader
		go func() {
			_, err := d.ReadPage(0, make([]byte, d.PageSize()))
			readDone <- err
		}()
		<-parked
		mutated := make(chan error, 1) // one send, as above
		go func() {
			_, _, err := d.AppendPage(0, []byte{2})
			if err == nil {
				_, err = d.ResetZone(0)
			}
			mutated <- err
		}()
		select {
		case err := <-mutated:
			if err != nil {
				t.Errorf("mutating the zone of a parked read: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("append/reset blocked behind a read parked in its fault hook")
		}
		close(release)
		if err := <-readDone; err != nil {
			t.Errorf("parked read: %v", err)
		}
	})
}
