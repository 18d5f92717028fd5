package core

// The call shape of a flush (writepath.go): set pages, PBFG pages and victim
// read-back all move through the kit's window, one device call per window —
// and moving calls moves no page: the device and engine counters of a fixed
// trace are what they were when every page was its own call.

import (
	"fmt"
	"testing"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/vtime"
)

// mediaCall is one Store or Load a countingMedia served.
type mediaCall struct{ zone, pages int }

// countingMedia is an in-memory device.Media that logs every Store and Load
// call by zone and pages moved. Only serial tests use it: the log is not
// synchronised.
type countingMedia struct {
	ps, ppz       int
	clock         *vtime.Clock
	zones         map[int][]byte
	stores, loads []mediaCall
}

func (m *countingMedia) Store(page int, data []byte) error {
	zone, n := page/m.ppz, max(1, (len(data)+m.ps-1)/m.ps)
	if m.zones[zone] == nil {
		m.zones[zone] = make([]byte, m.ppz*m.ps)
	}
	off := page % m.ppz * m.ps
	dst := m.zones[zone][off : off+n*m.ps]
	clear(dst[copy(dst, data):])
	m.stores = append(m.stores, mediaCall{zone, n})
	return nil
}

func (m *countingMedia) Load(page int, dst []byte) error {
	zone := page / m.ppz
	copy(dst, m.zones[zone][page%m.ppz*m.ps:])
	m.loads = append(m.loads, mediaCall{zone, len(dst) / m.ps})
	return nil
}

func (m *countingMedia) Erase(zone int)                    { delete(m.zones, zone) }
func (m *countingMedia) Mutating()                         {}
func (m *countingMedia) Done(device.Op, int) time.Duration { return m.clock.Now() }

// countingDevice completes the state machine over a countingMedia to a
// device.Device.
type countingDevice struct{ *device.Zoned }

func (countingDevice) Close() error { return nil }

// TestFlushCallShape replays a fixed Set/Get trace through enough flushes to
// evict, write back at the Table 3 hotness tail and seal index groups, and
// checks every Set: its flushes
// made at most ⌈setsPerSG / window pages⌉ data Store calls each, its group
// seals as many index Store calls, and its victim read-backs at most as many
// data-zone Load calls — no call longer than a window. Every SG still lands
// whole, and the totals of the trace — device Stats and Generation, engine
// Stats — are the constants recorded when a flush made one call per page.
func TestFlushCallShape(t *testing.T) {
	const ps, ppz, dataZones, members = 4096, 64, 8, 4
	g := device.Geometry{PageSize: ps, PagesPerZone: ppz, Zones: dataZones + IndexZonesFor(dataZones, members)}
	clock := &vtime.Clock{}
	m := &countingMedia{ps: ps, ppz: ppz, clock: clock, zones: map[int][]byte{}}
	dev := countingDevice{device.NewZoned("counting", g, clock, m, device.Generation{Boot: 1}, nil)}
	cfg := DefaultConfig(dev, dataZones)
	cfg.SGsPerIndexGroup = members
	cfg.CachedPBFGRatio = 1 // the index cache keeps every PBFG page it fetches
	c, err := newBare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	win := flushWindow / ps
	windows := (c.setsPerSG + win - 1) / win
	if windows < 2 {
		t.Fatalf("%d sets fit one %d-page window: the geometry tests nothing", c.setsPerSG, win)
	}
	zoneBytes := uint64(c.setsPerSG * ps)
	key := func(i int) []byte { return []byte(fmt.Sprintf("shape-key-%07d", i)) }
	value := func(i int) []byte { return []byte(fmt.Sprintf("shape-value-%07d-%0280d", i, i)) }

	var dataPages, idxPages, maxReadBack int
	for i := 0; i < 16_000; i++ {
		// A hit on flash marks a hotness bit only in the oldest HotTrackTail
		// of the pool, so the trace reads keys set long enough ago to sit
		// there. The read comes before the Set's call window: its data-zone
		// Loads are not read-back.
		if i%3 == 0 && i >= 5000 {
			c.Get(key(i - 5000))
		}
		stores, loads, ex := len(m.stores), len(m.loads), c.Readout().NemoStats
		if err := c.Set(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
		flushes := int(c.Readout().SGsFlushed - ex.SGsFlushed)
		seals := int((c.Readout().IndexBytesWritten - ex.IndexBytesWritten) / zoneBytes)
		var dataStores, idxStores, readBack, readBackPages int
		for _, s := range m.stores[stores:] {
			if s.pages > win {
				t.Fatalf("set %d: a Store of %d pages, longer than the %d-page window", i, s.pages, win)
			}
			if s.zone < dataZones {
				dataStores++
				dataPages += s.pages
			} else {
				idxStores++
				idxPages += s.pages
			}
		}
		for _, l := range m.loads[loads:] {
			if l.zone < dataZones { // the only data-zone reads a Set makes are read-back
				if l.pages > win {
					t.Fatalf("set %d: a read-back Load of %d pages, longer than the %d-page window", i, l.pages, win)
				}
				readBack++
				readBackPages += l.pages
			}
		}
		maxReadBack = max(maxReadBack, readBackPages)
		if dataStores > flushes*windows || idxStores > seals*windows || readBack > flushes*windows {
			t.Fatalf("set %d: %d flushes (%d seals) made %d data and %d index Stores and %d read-back Loads; at most %d calls each a flush",
				i, flushes, seals, dataStores, idxStores, readBack, windows)
		}
	}
	ex := c.Readout().NemoStats
	if dataPages != int(ex.SGsFlushed)*c.setsPerSG || uint64(idxPages) != ex.IndexBytesWritten/uint64(ps) {
		t.Errorf("%d data and %d index pages stored for %d SGs and %d index bytes", dataPages, idxPages, ex.SGsFlushed, ex.IndexBytesWritten)
	}
	if maxReadBack <= win || ex.IndexBytesWritten == 0 || ex.WriteBackObjs == 0 {
		t.Fatalf("the trace read back at most %d pages a flush, sealed %d index bytes and wrote back %d objects: want more than a window, a seal and a writeback",
			maxReadBack, ex.IndexBytesWritten, ex.WriteBackObjs)
	}

	// Recorded from the same trace when every page was its own device call,
	// and moved once since: when filters were sized from measured set counts
	// (each group's fullest first-member set holds 9 to 13 objects here, so
	// 192-bit filters where the retired 40-object target gave 576),
	// PagesRead and FlashReadOps went 5770 → 5782 and BytesRead 23633920 →
	// 23683072 (12 more false-positive page reads, the filters now running
	// at the sized 0.1% rather than ~1e-7), and Evictions 9182 → 9184 (two
	// hot objects a filter false positive now shadows are not written back).
	// Writes, resets and the call shape are unchanged. Moved again when the
	// hotness tail became the fixed 30% (it was the whole pool here): the
	// reads went from 2,000 to 5,000 Sets back, so that they land in the
	// tail, which moved the read side — Gets 4667 → 3667, Hits 4618 → 3628,
	// PagesRead and FlashReadOps 5782 → 4793, BytesRead 23683072 →
	// 19632128 — and Evictions 9184 → 9198. Writes, resets and generation
	// writes are unchanged.
	wantDev := device.Stats{PagesWritten: 1664, PagesRead: 4793, ZoneResets: 16, BytesWritten: 6815744, BytesRead: 19632128}
	wantWrites := uint64(1680)
	wantEngine := cachelib.Stats{Gets: 3667, Hits: 3628, Sets: 16000, LogicalBytes: 5072000,
		FlashBytesWritten: 6815744, DeviceBytesWritten: 6815744, FlashBytesRead: 19632128, FlashReadOps: 4793, Evictions: 9198}
	if got := dev.Stats(); got != wantDev {
		t.Errorf("device stats %+v, want %+v", got, wantDev)
	}
	if got := dev.Generation().Writes; got != wantWrites {
		t.Errorf("generation writes %d, want %d", got, wantWrites)
	}
	if got := c.Stats(); got != wantEngine {
		t.Errorf("engine stats %#v, want %#v", got, wantEngine)
	}
}
