package device

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nemo/internal/vtime"
)

// Op names the kind of media work whose completion Media.Done times.
type Op uint8

// Media operations: a page read, a page program, a zone erase.
const (
	OpRead Op = iota
	OpProgram
	OpErase
)

// Media is everything that differs between the backends: where page bytes
// live and what an operation costs on the device clock. Zoned calls it with
// validated arguments and — for Store, Load and Erase — with the zone's lock
// held (exclusively for Store and Erase, shared for Load), so a Media needs
// no per-zone synchronisation of its own.
type Media interface {
	// Store programs one page. data holds at most a page; the media
	// zero-pads shorter data to a full page. An error means nothing the
	// device will ever read back was written.
	Store(page int, data []byte) error
	// Load copies a page below its zone's write pointer into dst, which
	// is exactly one page long. Pages at or beyond the write pointer never
	// reach the media.
	Load(page int, dst []byte) error
	// Erase discards a zone's contents. It cannot fail: reads of an erased
	// zone are zero-filled by Zoned, so reclaiming the space is best-effort.
	Erase(zone int)
	// Mutating runs before every append and reset — after validation and
	// the write fault hook, outside the zone lock — so a persistent media
	// can invalidate on-disk metadata before the first change.
	Mutating()
	// Done returns the completion time, on the device clock, of an op just
	// performed at the page.
	Done(op Op, page int) time.Duration
}

type zone struct {
	mu sync.RWMutex
	wp int // next page offset to program within the zone
}

// Zoned is the zoned-device state machine both backends embed: geometry,
// per-zone write pointers, open-zone accounting, activity counters, the
// generation stamp and the fault hooks. It enforces every guarantee of the
// package comment's contract except the ones marked as the media's. All
// methods are safe for concurrent use; operations on distinct zones proceed
// in parallel, and so do reads of one zone.
type Zoned struct {
	name  string // backend name, the prefix of every error
	geom  Geometry
	clock *vtime.Clock
	media Media
	zones []zone

	// Open-zone accounting: openCount tracks zones with 0 < wp <
	// PagesPerZone and is only touched on open/close transitions.
	openMu    sync.Mutex
	openCount int

	// Successful page appends, page reads and zone resets. Stats' byte
	// counts and Generation.Writes are derived from these, which is what
	// keeps a rejected or failed operation from ever moving them.
	pagesWritten atomic.Uint64
	pagesRead    atomic.Uint64
	zoneResets   atomic.Uint64

	boot    uint64 // Generation.Boot, chosen by the backend
	writes0 uint64 // Generation.Writes adopted from a warm open

	readFault  atomic.Pointer[func(page int) error] // nil when disabled
	writeFault atomic.Pointer[func(zone int) error]
}

// NewZoned builds the state machine over a media. g must be fully resolved
// (no zero defaults) and name is the backend's error prefix. start is the
// generation stamp to continue from and wps the write pointers to adopt —
// the one way a warm open hands persisted state in; a cold format passes a
// fresh Boot with zero Writes and nil wps.
func NewZoned(name string, g Geometry, clock *vtime.Clock, m Media, start Generation, wps []int) *Zoned {
	z := &Zoned{name: name, geom: g, clock: clock, media: m, zones: make([]zone, g.Zones),
		boot: start.Boot, writes0: start.Writes}
	for i, wp := range wps {
		z.zones[i].wp = wp
		if wp > 0 && wp < g.PagesPerZone {
			z.openCount++
		}
	}
	return z
}

// Clock returns the clock completion times are measured on.
func (z *Zoned) Clock() *vtime.Clock { return z.clock }

// PageSize returns the page size in bytes.
func (z *Zoned) PageSize() int { return z.geom.PageSize }

// PagesPerZone returns the zone size in pages.
func (z *Zoned) PagesPerZone() int { return z.geom.PagesPerZone }

// Zones returns the number of zones.
func (z *Zoned) Zones() int { return z.geom.Zones }

// TotalPages returns the device capacity in pages.
func (z *Zoned) TotalPages() int { return z.geom.Zones * z.geom.PagesPerZone }

// CapacityBytes returns the device capacity in bytes.
func (z *Zoned) CapacityBytes() int64 { return int64(z.TotalPages()) * int64(z.geom.PageSize) }

// ZoneOf returns the zone containing the global page index.
func (z *Zoned) ZoneOf(page int) int { return page / z.geom.PagesPerZone }

// PageAddr returns the global page index of offset off within zoneID.
func (z *Zoned) PageAddr(zoneID, off int) int { return zoneID*z.geom.PagesPerZone + off }

// OffsetOf returns the intra-zone offset of the global page index.
func (z *Zoned) OffsetOf(page int) int { return page % z.geom.PagesPerZone }

// MaxOpenZones returns the open-zone limit (0 = unlimited).
func (z *Zoned) MaxOpenZones() int { return z.geom.MaxOpenZones }

// Stats returns a snapshot of the device counters. Each counter is loaded
// atomically; under concurrent traffic the fields may straddle in-flight
// operations, but quiescent reads (how every experiment samples) are exact.
func (z *Zoned) Stats() Stats {
	pw, pr, ps := z.pagesWritten.Load(), z.pagesRead.Load(), uint64(z.geom.PageSize)
	return Stats{
		PagesWritten: pw,
		PagesRead:    pr,
		ZoneResets:   z.zoneResets.Load(),
		BytesWritten: pw * ps,
		BytesRead:    pr * ps,
	}
}

// Generation returns the device mutation stamp (see the Generation type).
func (z *Zoned) Generation() Generation {
	return Generation{Boot: z.boot, Writes: z.writes0 + z.pagesWritten.Load() + z.zoneResets.Load()}
}

// SetReadFault installs a hook invoked with the global page index on every
// read, after argument validation, before any state changes and outside
// zone locks; a non-nil return aborts the read with that error. The hook
// may block to hold a read mid-flight without stalling any zone. Pass nil
// to disable.
func (z *Zoned) SetReadFault(f func(page int) error) {
	if f == nil {
		z.readFault.Store(nil)
		return
	}
	z.readFault.Store(&f)
}

// SetWriteFault is SetReadFault's append-side twin, invoked with the zone
// ID (e.g. to observe a cache's in-flight flush window).
func (z *Zoned) SetWriteFault(f func(zone int) error) {
	if f == nil {
		z.writeFault.Store(nil)
		return
	}
	z.writeFault.Store(&f)
}

// ZoneWP returns the write pointer (pages written) of the zone.
func (z *Zoned) ZoneWP(zoneID int) int {
	zn := &z.zones[zoneID]
	zn.mu.RLock()
	defer zn.mu.RUnlock()
	return zn.wp
}

// ZoneFull reports whether the zone has no remaining writable pages.
func (z *Zoned) ZoneFull(zoneID int) bool { return z.ZoneWP(zoneID) >= z.geom.PagesPerZone }

// OpenZones returns the number of partially written zones.
func (z *Zoned) OpenZones() int {
	z.openMu.Lock()
	defer z.openMu.Unlock()
	return z.openCount
}

// reserveOpen admits (or rejects) the 0→open transition of a zone against
// the configured open-zone limit.
func (z *Zoned) reserveOpen(zoneID int) error {
	z.openMu.Lock()
	defer z.openMu.Unlock()
	if z.geom.MaxOpenZones > 0 && z.openCount >= z.geom.MaxOpenZones {
		return fmt.Errorf("opening zone %d: %w (limit %d)", zoneID, ErrTooManyOpenZones, z.geom.MaxOpenZones)
	}
	z.openCount++
	return nil
}

func (z *Zoned) releaseOpen() {
	z.openMu.Lock()
	z.openCount--
	z.openMu.Unlock()
}

func (z *Zoned) checkZone(zoneID int) error {
	if zoneID < 0 || zoneID >= z.geom.Zones {
		return fmt.Errorf("%s: zone %d out of range [0,%d)", z.name, zoneID, z.geom.Zones)
	}
	return nil
}

// AppendPage programs one page at the zone's write pointer. data longer than
// a page is an error; shorter data is zero-padded (the full page is still
// counted as written, which is exactly the fill-rate cost the paper
// measures). It returns the global page index and the completion time.
// Appends to the same zone serialize on the zone's lock (the zone has a
// single write pointer); appends to distinct zones run in parallel. A media
// error leaves the write pointer, the open-zone count and every counter
// where they were, so the append can simply be retried.
func (z *Zoned) AppendPage(zoneID int, data []byte) (page int, done time.Duration, err error) {
	if err := z.checkZone(zoneID); err != nil {
		return 0, 0, err
	}
	if len(data) > z.geom.PageSize {
		return 0, 0, fmt.Errorf("%s: write of %d bytes exceeds page size %d", z.name, len(data), z.geom.PageSize)
	}
	if f := z.writeFault.Load(); f != nil {
		if err := (*f)(zoneID); err != nil {
			return 0, 0, err
		}
	}
	z.media.Mutating()
	zn := &z.zones[zoneID]
	zn.mu.Lock()
	defer zn.mu.Unlock()
	if zn.wp >= z.geom.PagesPerZone {
		return 0, 0, fmt.Errorf("%s: zone %d full", z.name, zoneID)
	}
	opened := zn.wp == 0
	if opened {
		if err := z.reserveOpen(zoneID); err != nil {
			return 0, 0, err
		}
	}
	page = z.PageAddr(zoneID, zn.wp)
	if err := z.media.Store(page, data); err != nil {
		if opened {
			z.releaseOpen()
		}
		return 0, 0, fmt.Errorf("%s: write page %d: %w", z.name, page, err)
	}
	zn.wp++
	if zn.wp == z.geom.PagesPerZone {
		z.releaseOpen()
	}
	z.pagesWritten.Add(1)
	return page, z.media.Done(OpProgram, page), nil
}

// Append programs len(data)/PageSize pages (rounding the tail up to a full
// page) sequentially into the zone. It returns the first global page index
// and the completion time of the last page.
func (z *Zoned) Append(zoneID int, data []byte) (firstPage int, done time.Duration, err error) {
	ps := z.geom.PageSize
	if len(data) == 0 {
		return 0, z.clock.Now(), nil
	}
	first := -1
	for off := 0; off < len(data); off += ps {
		page, t, err := z.AppendPage(zoneID, data[off:min(off+ps, len(data))])
		if err != nil {
			return 0, 0, err
		}
		if first < 0 {
			first = page
		}
		done = max(done, t)
	}
	return first, done, nil
}

// ReadPage copies the page into dst (which must hold PageSize bytes) and
// returns the completion time. A page at or beyond its zone's write pointer
// yields zeroes without touching the media — the write pointer, not the
// stored bytes, is authoritative, which matches the deallocated-read
// behaviour of real zoned devices and makes reformat-on-open safe.
//
// Buffer ownership: dst belongs to the caller. The device fills it
// synchronously, before returning, and never retains a reference — so
// callers may serve dst from a sync.Pool and recycle it the moment they are
// done with the bytes (the cache engines' zero-allocation read paths do
// exactly that). The converse also holds: the device never hands out
// internal buffers, so a returned read is a stable snapshot even if the zone
// is concurrently appended or reset afterwards. The zone's read lock is held
// across the media load, so a concurrent ResetZone waits for it.
func (z *Zoned) ReadPage(page int, dst []byte) (done time.Duration, err error) {
	if page < 0 || page >= z.TotalPages() {
		return 0, fmt.Errorf("%s: page %d out of range [0,%d)", z.name, page, z.TotalPages())
	}
	if len(dst) < z.geom.PageSize {
		return 0, fmt.Errorf("%s: read buffer %d smaller than page size %d", z.name, len(dst), z.geom.PageSize)
	}
	if f := z.readFault.Load(); f != nil {
		if err := (*f)(page); err != nil {
			return 0, err
		}
	}
	zn := &z.zones[z.ZoneOf(page)]
	dst = dst[:z.geom.PageSize]
	zn.mu.RLock()
	if z.OffsetOf(page) >= zn.wp {
		clear(dst)
	} else {
		err = z.media.Load(page, dst)
	}
	zn.mu.RUnlock()
	if err != nil {
		return 0, fmt.Errorf("%s: read page %d: %w", z.name, page, err)
	}
	z.pagesRead.Add(1)
	return z.media.Done(OpRead, page), nil
}

// ReadPages reads every page into the matching dst buffer and returns the
// completion time of the slowest read (the paper's parallel candidate-SG
// and PBFG reads). The ReadPage buffer-ownership contract applies to every
// dst. On error, buffers before the failing page have been filled and the
// rest are untouched; the error is the first one encountered in page order.
func (z *Zoned) ReadPages(pages []int, dst [][]byte) (done time.Duration, err error) {
	for i, p := range pages {
		t, err := z.ReadPage(p, dst[i])
		if err != nil {
			return 0, err
		}
		done = max(done, t)
	}
	return done, nil
}

// ResetZone erases the zone, rewinding its write pointer, and returns the
// completion time.
func (z *Zoned) ResetZone(zoneID int) (done time.Duration, err error) {
	if err := z.checkZone(zoneID); err != nil {
		return 0, err
	}
	z.media.Mutating()
	zn := &z.zones[zoneID]
	zn.mu.Lock()
	if zn.wp > 0 && zn.wp < z.geom.PagesPerZone {
		z.releaseOpen()
	}
	zn.wp = 0
	z.media.Erase(zoneID)
	zn.mu.Unlock()
	z.zoneResets.Add(1)
	return z.media.Done(OpErase, z.PageAddr(zoneID, 0)), nil
}
