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
// no per-zone synchronisation of its own. Store and Load move runs: the
// consecutive pages from page on, all in page's zone, in one call.
type Media interface {
	// Store programs the run of max(1, ceil(len(data)/PageSize)) pages that
	// starts at page; the media zero-pads a short last page (an empty one,
	// from AppendPage, included). An error may leave any prefix of the run
	// stored: Zoned does not advance the write pointer, so none of it is
	// ever read back.
	Store(page int, data []byte) error
	// Load copies the run of len(dst)/PageSize pages that starts at page,
	// all below their zone's write pointer, into dst, a whole number of
	// pages long. Pages at or beyond the write pointer never reach the
	// media.
	Load(page int, dst []byte) error
	// Erase discards a zone's contents. It cannot fail: reads of an erased
	// zone are zero-filled by Zoned, so reclaiming the space is best-effort.
	Erase(zone int)
	// Mutating runs before every append and reset — after validation and
	// the write fault hook, outside the zone lock — so a persistent media
	// can invalidate on-disk metadata before the first change.
	Mutating()
	// Done returns the completion time, on the device clock, of an op just
	// performed at the page. Zoned calls it once per page of a run, in page
	// order.
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
// ID once per page of an append run, before the zone lock and before any
// page of the run is stored (e.g. to observe a cache's in-flight flush).
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
// measures). It returns the global page index and the completion time. It is
// Append of a one-page run.
func (z *Zoned) AppendPage(zoneID int, data []byte) (page int, done time.Duration, err error) {
	if len(data) > z.geom.PageSize {
		return 0, 0, fmt.Errorf("%s: write of %d bytes exceeds page size %d", z.name, len(data), z.geom.PageSize)
	}
	return z.appendRun(zoneID, data, 1)
}

// Append programs len(data)/PageSize pages (rounding the tail up to a full
// page) as one run at the zone's write pointer, with one media call. It
// returns the first global page index and the completion time of the last
// page. The run is all-or-nothing: one longer than a zone is rejected, one
// that does not fit the zone's remaining pages fails with "zone full", and
// a write-hook error on any page or a media error fails the whole run with
// the write pointer, the open-zone count and every counter where they were,
// so the append can simply be retried. Appends to the same zone serialize on
// the zone's lock (the zone has a single write pointer); appends to distinct
// zones run in parallel.
func (z *Zoned) Append(zoneID int, data []byte) (firstPage int, done time.Duration, err error) {
	if len(data) == 0 {
		return 0, z.clock.Now(), nil
	}
	return z.appendRun(zoneID, data, (len(data)+z.geom.PageSize-1)/z.geom.PageSize)
}

// appendRun is Append of the n pages data holds.
func (z *Zoned) appendRun(zoneID int, data []byte, n int) (first int, done time.Duration, err error) {
	if err := z.checkZone(zoneID); err != nil {
		return 0, 0, err
	}
	ppz := z.geom.PagesPerZone
	if n > ppz {
		return 0, 0, fmt.Errorf("%s: append of %d pages exceeds the %d-page zone", z.name, n, ppz)
	}
	// The hook runs once per page, so a FaultPlan draws per page whatever
	// the run length; its first error fails the run.
	if f := z.writeFault.Load(); f != nil {
		for range n {
			if err := (*f)(zoneID); err != nil {
				return 0, 0, err
			}
		}
	}
	z.media.Mutating()
	zn := &z.zones[zoneID]
	zn.mu.Lock()
	defer zn.mu.Unlock()
	if zn.wp+n > ppz {
		return 0, 0, fmt.Errorf("%s: zone %d full (%d of %d pages written, %d to append)", z.name, zoneID, zn.wp, ppz, n)
	}
	opened := zn.wp == 0
	if opened {
		if err := z.reserveOpen(zoneID); err != nil {
			return 0, 0, err
		}
	}
	first = z.PageAddr(zoneID, zn.wp)
	if err := z.media.Store(first, data); err != nil {
		if opened {
			z.releaseOpen()
		}
		return 0, 0, fmt.Errorf("%s: write %s: %w", z.name, pageSpan(first, n), err)
	}
	zn.wp += n
	if zn.wp == ppz {
		z.releaseOpen()
	}
	z.pagesWritten.Add(uint64(n))
	for p := first; p < first+n; p++ {
		done = max(done, z.media.Done(OpProgram, p))
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
	if err := z.checkRead(page, dst); err != nil {
		return 0, err
	}
	return z.loadRun(page, 1, dst[:z.geom.PageSize])
}

// ReadPages reads every page into the matching dst buffer and returns the
// completion time of the slowest read (the paper's parallel candidate-SG
// and PBFG reads). The ReadPage buffer-ownership contract applies to every
// dst. Consecutive pages of one zone whose dst buffers are consecutive
// page-sized slices of one array form a run, loaded with one media call.
// On error, buffers before the failing page have been filled and the rest
// are untouched — except that a media error fails its whole run, leaving
// that run's buffers unspecified; the error is the first one encountered in
// page order.
func (z *Zoned) ReadPages(pages []int, dst [][]byte) (done time.Duration, err error) {
	ps := z.geom.PageSize
	for i := 0; i < len(pages); {
		// Grow the run at i page by page, each validated and past the read
		// hook before it joins; a page that fails ends the run, which is
		// still read, and then the call.
		n, stop := 0, error(nil)
		for i+n < len(pages) && (n == 0 || z.extendsRun(pages[i], n, pages[i+n], dst[i], dst[i+n])) {
			if stop = z.checkRead(pages[i+n], dst[i+n]); stop != nil {
				break
			}
			n++
		}
		if n > 0 {
			t, err := z.loadRun(pages[i], n, dst[i][:n*ps])
			if err != nil {
				return 0, err
			}
			done = max(done, t)
		}
		if stop != nil {
			return 0, stop
		}
		i += n
	}
	return done, nil
}

// extendsRun reports whether page can join the run of n pages from first
// whose buffer starts at head: it is the run's next page, in the same zone,
// and dst is the next page-sized slice of head's array.
func (z *Zoned) extendsRun(first, n, page int, head, dst []byte) bool {
	ps := z.geom.PageSize
	return page == first+n && z.OffsetOf(page) != 0 && len(dst) >= ps &&
		cap(head) >= (n+1)*ps && &head[:n*ps+1][n*ps] == &dst[0]
}

// checkRead validates one page read and runs the read hook on it.
func (z *Zoned) checkRead(page int, dst []byte) error {
	if page < 0 || page >= z.TotalPages() {
		return fmt.Errorf("%s: page %d out of range [0,%d)", z.name, page, z.TotalPages())
	}
	if len(dst) < z.geom.PageSize {
		return fmt.Errorf("%s: read buffer %d smaller than page size %d", z.name, len(dst), z.geom.PageSize)
	}
	if f := z.readFault.Load(); f != nil {
		return (*f)(page)
	}
	return nil
}

// loadRun fills buf with the n checked pages from first, all in one zone:
// one media load for those below the write pointer, zeroes for the rest.
func (z *Zoned) loadRun(first, n int, buf []byte) (done time.Duration, err error) {
	ps := z.geom.PageSize
	zn := &z.zones[z.ZoneOf(first)]
	zn.mu.RLock()
	below := min(n, max(0, zn.wp-z.OffsetOf(first)))
	if below > 0 {
		err = z.media.Load(first, buf[:below*ps])
	}
	clear(buf[below*ps:])
	zn.mu.RUnlock()
	if err != nil {
		return 0, fmt.Errorf("%s: read %s: %w", z.name, pageSpan(first, n), err)
	}
	z.pagesRead.Add(uint64(n))
	for p := first; p < first+n; p++ {
		done = max(done, z.media.Done(OpRead, p))
	}
	return done, nil
}

// pageSpan names a run in errors: "page 7", or "pages 7-9".
func pageSpan(first, n int) string {
	if n == 1 {
		return fmt.Sprintf("page %d", first)
	}
	return fmt.Sprintf("pages %d-%d", first, first+n-1)
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
