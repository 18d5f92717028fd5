package flashsim

import (
	"errors"
	"fmt"
	"testing"
)

// ZoneState describes a zone's lifecycle position (§2.2's zoned interface),
// as these tests read it off the write pointer; no engine asks.
type ZoneState int

// Zone states: empty (reset, unwritten), open (partially written), full
// (write pointer at capacity).
const (
	ZoneEmpty ZoneState = iota
	ZoneOpen
	ZoneFull
)

// String renders the state for diagnostics.
func (s ZoneState) String() string {
	switch s {
	case ZoneEmpty:
		return "EMPTY"
	case ZoneOpen:
		return "OPEN"
	case ZoneFull:
		return "FULL"
	default:
		return fmt.Sprintf("ZoneState(%d)", int(s))
	}
}

// stateOf derives a zone's lifecycle state from its write pointer.
func stateOf(d *Device, zoneID int) ZoneState {
	switch wp := d.ZoneWP(zoneID); {
	case wp == 0:
		return ZoneEmpty
	case wp >= d.PagesPerZone():
		return ZoneFull
	default:
		return ZoneOpen
	}
}

func TestZoneStates(t *testing.T) {
	d := New(Config{PageSize: 512, PagesPerZone: 2, Zones: 4})
	if got := stateOf(d, 0); got != ZoneEmpty || d.ZoneWP(0) != 0 {
		t.Fatalf("fresh zone state = %v, wp %d", got, d.ZoneWP(0))
	}
	d.AppendPage(0, []byte{1})
	if got := stateOf(d, 0); got != ZoneOpen || d.ZoneWP(0) != 1 || d.ZoneFull(0) {
		t.Fatalf("after one page, state = %v, wp %d, full %v", got, d.ZoneWP(0), d.ZoneFull(0))
	}
	d.AppendPage(0, []byte{2})
	if got := stateOf(d, 0); got != ZoneFull || !d.ZoneFull(0) {
		t.Fatalf("after fill, state = %v, full %v", got, d.ZoneFull(0))
	}
	d.ResetZone(0)
	if got := stateOf(d, 0); got != ZoneEmpty || d.ZoneWP(0) != 0 {
		t.Fatalf("after reset, state = %v, wp %d", got, d.ZoneWP(0))
	}
}

func TestZoneStateString(t *testing.T) {
	for s, want := range map[ZoneState]string{
		ZoneEmpty:     "EMPTY",
		ZoneOpen:      "OPEN",
		ZoneFull:      "FULL",
		ZoneState(42): "ZoneState(42)",
	} {
		if s.String() != want {
			t.Fatalf("state %d renders %q", int(s), s.String())
		}
	}
}

func TestMaxOpenZonesEnforced(t *testing.T) {
	d := New(Config{PageSize: 512, PagesPerZone: 4, Zones: 8, MaxOpenZones: 2})
	// Open two zones.
	if _, _, err := d.AppendPage(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.AppendPage(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := d.OpenZones(); got != 2 {
		t.Fatalf("open zones = %d", got)
	}
	// A third open must fail.
	if _, _, err := d.AppendPage(2, []byte{1}); !errors.Is(err, ErrTooManyOpenZones) {
		t.Fatalf("expected ErrTooManyOpenZones, got %v", err)
	}
	// Appending to an already open zone stays legal.
	if _, _, err := d.AppendPage(0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	// Filling a zone transitions it out of open, freeing a slot.
	d.AppendPage(0, []byte{3})
	d.AppendPage(0, []byte{4})
	if !d.ZoneFull(0) {
		t.Fatal("zone 0 should be full")
	}
	if _, _, err := d.AppendPage(2, []byte{1}); err != nil {
		t.Fatalf("open after slot freed: %v", err)
	}
	// Reset also frees a slot.
	d.ResetZone(1)
	if _, _, err := d.AppendPage(3, []byte{1}); err != nil {
		t.Fatalf("open after reset: %v", err)
	}
}

func TestMaxOpenZonesUnlimitedByDefault(t *testing.T) {
	d := New(Config{PageSize: 512, PagesPerZone: 4, Zones: 16})
	for z := 0; z < 16; z++ {
		if _, _, err := d.AppendPage(z, []byte{1}); err != nil {
			t.Fatalf("zone %d: %v", z, err)
		}
	}
	if d.OpenZones() != 16 {
		t.Fatalf("open zones = %d", d.OpenZones())
	}
}
