// Package device defines the zoned-device contract every cache engine in
// this repository is written against — a fixed geometry of erase-unit zones
// holding page-granularity data, append-only writes at a per-zone write
// pointer, whole-zone resets, byte-exact activity accounting (§2.2: the one
// contract ZNS and FDP devices share) — and the one state machine that
// enforces it.
//
// Zoned (zoned.go) is that state machine. The two backends embed it and
// supply only a Media: internal/flashsim keeps zone contents in memory and
// times operations on a per-channel virtual clock (deterministic; the
// simulator the paper's numbers were first reproduced on), internal/filedev
// keeps them in a preallocated image file and reports measured wall-clock
// completion times. Engines — Nemo's core and all four baselines — accept
// the Device interface and cannot tell the backends apart except through the
// clock: a mixed-trace replay produces identical hit ratios, write
// amplification and eviction counts on either (pinned by
// TestDifferentialContract here and the cross-backend equivalence tests in
// internal/experiments); only the latency columns differ.
//
// The contract, normative. Zoned guarantees:
//
//   - An append lands at its zone's write pointer and advances it; a full
//     zone rejects appends until ResetZone rewinds it (append-only,
//     erase-before-reuse). At most MaxOpenZones zones (0 = unlimited) are
//     partially written at once; opening one more fails with
//     ErrTooManyOpenZones.
//   - Reading a page at or beyond its zone's write pointer yields zeroes and
//     never touches the media (deallocated-read behaviour of real zoned
//     devices), so whatever bytes a medium holds past a write pointer —
//     an image reused after a reformat, a reset that reclaimed nothing —
//     can never leak into a read.
//   - An operation that fails — rejected arguments, a fault hook's error, a
//     full zone, the open-zone limit, a media error — changes nothing: no
//     write pointer, open-zone reservation, Stats counter or
//     Generation.Writes moves, so a failed append can simply be retried.
//     A multi-page Append is one operation: it lands whole or not at all.
//     Generation.Writes counts successful page appends and resets only.
//   - Runs: an Append is one media Store of the whole run, and ReadPages
//     loads each run of consecutive same-zone pages whose buffers are
//     adjacent slices of one array with one media Load. On filedev that is
//     one pwrite per append run, and one copy out of the image's read-only
//     mapping per read run (one pread with Direct). The fault hooks still
//     run once per page.
//   - Buffer ownership (the rule the zero-allocation read paths rely on):
//     dst belongs to the caller, is filled synchronously before the call
//     returns, and is never retained; the device never hands out internal
//     buffers.
//   - Concurrency: all methods are safe for concurrent use. Operations on
//     distinct zones proceed in parallel, as do reads of one zone; appends
//     to one zone serialize on its single write pointer.
//   - Fault hooks (SetReadFault/SetWriteFault) run after argument
//     validation, before any device state changes and outside zone locks,
//     so a test may block inside one to hold an operation mid-flight
//     without stalling any zone.
//
// The media guarantees: reads below the write pointer return exactly the
// appended bytes, a run's short last page zero-padded to a full page;
// completion times are on Clock(). A failed Store may have stored part of
// its run, but only past the write pointer, where no read reaches.
//
// Crash model (filedev with Persist; the simulator's contents never outlive
// its process). A clean Close persists the write pointers and the Generation
// in a synced superblock, and the next open is warm. The first mutation
// after any open zeroes that superblock before a zone changes, so after a
// process kill — where the kernel still owns every written page — the next
// open finds no valid superblock and cold-formats under a fresh Boot
// (TestPersistCrashColdFormats, TestPersistFirstMutationInvalidates). Power
// loss is outside the model: the invalidation is not ordered before later
// zone writes by an fsync, so a surviving superblock may describe zones that
// have since changed, and the image must be discarded after one. Appends
// are never fsynced either; a cache refills from its backing store.
package device

import (
	"errors"
	"time"

	"nemo/internal/vtime"
)

// ErrTooManyOpenZones is returned by any backend when an append would
// exceed the device's open-zone limit.
var ErrTooManyOpenZones = errors.New("device: open zone limit reached")

// Stats counts all device activity since creation. Byte counts include only
// host-visible payloads (full pages).
type Stats struct {
	PagesWritten uint64
	PagesRead    uint64
	ZoneResets   uint64
	BytesWritten uint64
	BytesRead    uint64
}

// Generation is a device mutation stamp, the validity anchor for warm-restart
// snapshots (internal/snapshot): Boot uniquely identifies one cold format of
// the device contents, and Writes counts every successful mutation — page
// appends and zone resets — since that format. Two equal Generation values
// therefore mean the device holds exactly the zone contents and write
// pointers it held when the first value was sampled; any mutation in between
// makes Writes differ, and losing the device state entirely (process restart
// on the simulator, a crash before filedev's superblock was rewritten) makes
// Boot differ. Snapshot restore requires exact equality — there is no
// "close enough" — because a single unaccounted append or reset could alias
// stale index metadata onto rewritten flash.
//
// The simulator tracks its generation in memory (a fresh device always gets
// a fresh Boot); filedev persists it in a superblock page alongside the zone
// write pointers when opened in Persist mode, so a cleanly closed image
// reopens with the generation its last snapshot was stamped with.
type Generation struct {
	Boot   uint64
	Writes uint64
}

// Geometry is the backend-independent shape of a zoned device, used by
// factories (internal/backend, test harnesses) that must build equivalent
// devices on every implementation.
type Geometry struct {
	// PageSize is the read/program granularity in bytes (0 = backend
	// default, 4096).
	PageSize int
	// PagesPerZone is the zone (erase unit) size in pages (0 = backend
	// default, 256).
	PagesPerZone int
	// Zones is the number of zones on the device (0 = backend default, 64).
	Zones int
	// MaxOpenZones bounds the number of partially written zones, as real
	// ZNS devices do. 0 means unlimited.
	MaxOpenZones int
}

// Device is the zoned-device contract (see the package comment for the
// normative semantics). core.Config.Device, the four baseline configs, and
// the shared components (hlog, ftl) all accept this interface.
type Device interface {
	// Geometry.

	// PageSize returns the page size in bytes.
	PageSize() int
	// PagesPerZone returns the zone size in pages.
	PagesPerZone() int
	// Zones returns the number of zones on the device.
	Zones() int
	// TotalPages returns the device capacity in pages.
	TotalPages() int
	// CapacityBytes returns the device capacity in bytes.
	CapacityBytes() int64
	// ZoneOf returns the zone containing the global page index.
	ZoneOf(page int) int
	// PageAddr returns the global page index of offset off within zoneID.
	PageAddr(zoneID, off int) int
	// OffsetOf returns the intra-zone offset of the global page index.
	OffsetOf(page int) int
	// MaxOpenZones returns the open-zone limit (0 = unlimited).
	MaxOpenZones() int

	// Clock returns the clock latencies are measured on: virtual
	// (deterministic, advanced by the device model) on the simulator, real
	// (wall time, see vtime.NewReal) on physical backends. The `done`
	// results below are times on this clock; `done - Clock().Now()` sampled
	// before the call is the operation's latency.
	Clock() *vtime.Clock

	// Zone-append I/O.

	// AppendPage programs one page at the zone's write pointer. data longer
	// than a page is an error; shorter data is zero-padded (the full page
	// is still counted as written). It returns the global page index and
	// the completion time.
	AppendPage(zoneID int, data []byte) (page int, done time.Duration, err error)
	// Append programs len(data)/PageSize pages (rounding the tail up to a
	// full page) as one run into the zone: all of them, or — on any error —
	// none. It returns the first global page index and the completion time
	// of the last page.
	Append(zoneID int, data []byte) (firstPage int, done time.Duration, err error)
	// ReadPage copies the page into dst (which must hold PageSize bytes).
	// See the package comment for the buffer-ownership contract.
	ReadPage(page int, dst []byte) (done time.Duration, err error)
	// ReadPages reads every page into the matching dst buffer and returns
	// the completion time of the slowest read; consecutive pages of a zone
	// read into adjacent slices of one array are one media call. On error,
	// buffers before the failing page have been filled and the rest are
	// untouched (a media error leaves its whole run's buffers unspecified);
	// the error is the first one encountered in page order.
	ReadPages(pages []int, dst [][]byte) (done time.Duration, err error)
	// ResetZone erases the zone, rewinding its write pointer.
	ResetZone(zoneID int) (done time.Duration, err error)

	// Zone state.

	// ZoneWP returns the write pointer (pages written) of the zone.
	ZoneWP(zoneID int) int
	// ZoneFull reports whether the zone has no remaining writable pages.
	ZoneFull(zoneID int) bool
	// OpenZones returns the number of partially written zones.
	OpenZones() int

	// Accounting and fault injection.

	// Stats returns a snapshot of the device counters.
	Stats() Stats
	// Generation returns the device mutation stamp (see the Generation type):
	// Boot identifies the current cold format, Writes the successful
	// mutations since. Quiescent reads are exact; under concurrent traffic
	// the stamp may straddle in-flight operations, which is fine for its one
	// consumer — snapshot validation, which only ever compares stamps taken
	// at quiescence.
	Generation() Generation
	// SetReadFault installs a hook invoked with the global page index on
	// every read, before any state changes and outside zone locks; a
	// non-nil return aborts the read with that error. Pass nil to disable.
	SetReadFault(f func(page int) error)
	// SetWriteFault is SetReadFault's append-side twin, invoked with the
	// zone ID once per page of an append, before any of the run is stored;
	// an error on any page fails the whole run. The hook may block to hold
	// an append mid-flight without stalling reads or appends to other zones.
	SetWriteFault(f func(zone int) error)

	// Close releases backend resources (file descriptors, image files).
	// The simulator's Close is a no-op. Engines never close their device —
	// whoever opened it does.
	Close() error
}
