// Package filedev is the file-backed media under the shared zoned-device
// state machine (internal/device.Zoned, which owns write pointers, open-zone
// accounting, zero-fill beyond the write pointer, counters and fault hooks):
// one pwrite per run of consecutive pages, at page*PageSize in a
// preallocated image, so a multi-page Append is one system call. Reads make
// no system call: Open maps the image's data range read-only and shared
// (Linux), and a read run is one copy out of that mapping, which sees every
// pwrite and hole punch on the file. Off Linux, and with Direct, a read run
// is one pread. Where flashsim models latency on a virtual clock, filedev
// measures it — the device clock is real (vtime.NewReal), so the `done`
// results are wall-clock completion times and every latency histogram in
// the engines reports real I/O cost unchanged.
//
// Write-pointer persistence: off by default. Open formats the device —
// every zone's write pointer starts at zero, whatever bytes the file holds
// (a fresh Open on an existing image is a whole-device reset; the state
// machine never lets a read reach bytes past a write pointer, and full
// pages are always written, so stale file contents cannot leak).
// Config.Persist opts into warm restart: the image grows one superblock
// page past the data capacity holding the zone write pointers and the
// device generation stamp, rewritten on clean Close and invalidated before
// the first mutation after Open (see superblock.go, and the crash model in
// internal/device's package comment).
//
// Durability: appends are plain pwrites — there is no fsync per append, so
// completed appends may sit in the page cache and be lost on power failure
// (process crash is safe: the kernel owns the pages). That window is
// acceptable for a cache, which can always refill from the backing store;
// callers needing stronger guarantees must add their own sync policy.
//
// A mapped read cannot return a media error: a failing disk under the
// mapping, or an image truncated by another process, faults the process
// instead. Use Direct where the medium's read errors must reach the caller.
//
// Direct I/O: Config.Direct opens the image with O_DIRECT (Linux only),
// bypassing the page cache so measured latencies reflect the medium. The
// image is not mapped: reads stay preads. PageSize must then be a multiple
// of 4096 and all transfers go through pooled 4096-aligned bounce buffers,
// one run per buffer.
package filedev

import (
	"fmt"
	"os"
	"sync"
	"time"

	"nemo/internal/device"
	"nemo/internal/vtime"
)

// Config describes the file-backed device: image location and geometry.
type Config struct {
	// Path is the image file. Created (and sized) if missing; an existing
	// file is reused as raw storage and, unless Persist is set, always
	// reformatted (see the package comment on write-pointer persistence).
	Path string
	// PageSize is the read/program granularity in bytes (default 4096).
	PageSize int
	// PagesPerZone is the zone (erase unit) size in pages (default 256).
	PagesPerZone int
	// Zones is the number of zones on the device (default 64).
	Zones int
	// MaxOpenZones bounds the number of partially written zones. 0 means
	// unlimited. Opening a zone beyond the limit fails with
	// device.ErrTooManyOpenZones, exactly as on the simulator.
	MaxOpenZones int
	// Direct opens the image with O_DIRECT (Linux only; requires PageSize
	// to be a multiple of 4096).
	Direct bool
	// RemoveOnClose deletes the image file on Close — the mode benchmark
	// harnesses use for throwaway images.
	RemoveOnClose bool
	// Persist opts into write-pointer and generation persistence via a
	// superblock page appended past the data capacity: a cleanly closed
	// image reopens warm (write pointers and device.Generation restored), a
	// crashed or corrupted one cold-formats. Requires the superblock to fit
	// one page (44 + 4*Zones bytes ≤ PageSize). Pointless combined with
	// RemoveOnClose, but harmless.
	Persist bool
	// Clock overrides the device clock; nil takes a fresh real clock. Tests
	// may install a virtual clock to make `done` values deterministic —
	// I/O still happens, only the timestamps freeze.
	Clock *vtime.Clock
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.PagesPerZone == 0 {
		c.PagesPerZone = 256
	}
	if c.Zones == 0 {
		c.Zones = 64
	}
	if c.Clock == nil {
		c.Clock = vtime.NewReal()
	}
	return c
}

// Device is a file-backed zoned device: the shared state machine over the
// image file. All methods are safe for concurrent use.
type Device struct {
	*device.Zoned
	cfg Config
	f   *os.File

	// metaOnce gates the one-time superblock invalidation before the first
	// mutation of this open; restored records whether this open adopted a
	// superblock.
	metaOnce sync.Once
	restored bool

	// mapped is the image's data range mapped read-only and shared (nil with
	// Direct, off Linux, and after Close). Load reads it under mapMu's read
	// lock; Close unmaps it under the write lock, so no read ever touches an
	// unmapped range.
	mapMu  sync.RWMutex
	mapped []byte

	// bufs pools transfer buffers, a page or more long: zero-padding runs
	// with a short last page, and (Direct mode) 4096-aligned bounce buffers
	// for all transfers.
	bufs sync.Pool

	closeOnce sync.Once
	closeErr  error
}

// media is the Device seen as a device.Media: the methods Zoned calls, kept
// off Device's own method set.
type media struct{ *Device }

// Device implements the zoned-device contract.
var _ device.Device = (*Device)(nil)

// Open creates (or reuses) the image file at cfg.Path, sizes it to the
// device capacity, and returns a formatted device: every zone's write
// pointer is zero regardless of prior contents — unless cfg.Persist is set
// and the image carries a valid superblock, in which case the write
// pointers and generation stamp of the last clean Close are restored.
func Open(cfg Config) (*Device, error) {
	cfg = cfg.withDefaults()
	if cfg.Path == "" {
		return nil, fmt.Errorf("filedev: empty image path")
	}
	if cfg.Zones <= 0 || cfg.PagesPerZone <= 0 || cfg.PageSize <= 0 {
		return nil, fmt.Errorf("filedev: invalid geometry %d zones x %d pages x %d bytes",
			cfg.Zones, cfg.PagesPerZone, cfg.PageSize)
	}
	if cfg.Persist && sbSize(cfg.Zones) > cfg.PageSize {
		return nil, fmt.Errorf("filedev: superblock for %d zones (%d bytes) does not fit a %d-byte page",
			cfg.Zones, sbSize(cfg.Zones), cfg.PageSize)
	}
	if cfg.Direct {
		if !directSupported {
			return nil, fmt.Errorf("filedev: O_DIRECT is not supported on this platform")
		}
		if cfg.PageSize%directAlign != 0 {
			return nil, fmt.Errorf("filedev: O_DIRECT requires PageSize to be a multiple of %d, got %d",
				directAlign, cfg.PageSize)
		}
	}
	flags := os.O_RDWR | os.O_CREATE
	if cfg.Direct {
		flags |= directFlag
	}
	f, err := os.OpenFile(cfg.Path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filedev: open image: %w", err)
	}
	d := &Device{cfg: cfg, f: f}
	d.bufs.New = func() any { return d.newBuf(cfg.PageSize) }
	// Size the image to full capacity up front so pwrites never extend the
	// file (Persist adds one superblock page past the capacity). Truncate
	// leaves holes where nothing was written — resets punch the zone back to
	// a hole, so a long-lived image stays as sparse as its live data.
	// Shrinking a formerly-Persist image back to bare capacity also destroys
	// its superblock, so mode changes can never resurrect stale pointers.
	size := d.sbOffset()
	if cfg.Persist {
		size += int64(cfg.PageSize)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("filedev: size image to %d bytes: %w", size, err)
	}
	// Cold format (fresh Boot, every write pointer zero) unless a Persist
	// image carries a valid superblock.
	var gen device.Generation
	var wps []int
	if cfg.Persist {
		if gen, wps, err = d.loadOrFormatMeta(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		gen.Boot = randBoot()
	}
	if !cfg.Direct {
		if d.mapped, err = mapImage(f, d.sbOffset()); err != nil {
			f.Close()
			return nil, fmt.Errorf("filedev: map image: %w", err)
		}
	}
	g := device.Geometry{
		PageSize:     cfg.PageSize,
		PagesPerZone: cfg.PagesPerZone,
		Zones:        cfg.Zones,
		MaxOpenZones: cfg.MaxOpenZones,
	}
	d.Zoned = device.NewZoned("filedev", g, cfg.Clock, media{d}, gen, wps)
	return d, nil
}

// Config returns the effective configuration (defaults applied).
func (d *Device) Config() Config { return d.cfg }

// Path returns the image file location.
func (d *Device) Path() string { return d.cfg.Path }

// Restored reports whether this open adopted a valid superblock (warm
// open). Always false without Config.Persist.
func (d *Device) Restored() bool { return d.restored }

// byteOff returns the file offset of the global page index.
func (d *Device) byteOff(page int) int64 { return int64(page) * int64(d.cfg.PageSize) }

// Store is one pwrite of the whole run at its first page's file offset. A
// run with a short (or empty) last page — and, in Direct mode, every run —
// bounces through a pooled buffer with a zeroed tail, so stale file bytes
// can never ride along.
func (m media) Store(page int, data []byte) error {
	n := max(1, (len(data)+m.cfg.PageSize-1)/m.cfg.PageSize) * m.cfg.PageSize
	if len(data) < n || m.cfg.Direct {
		bp := m.transferBuf(n)
		defer m.bufs.Put(bp)
		b := (*bp)[:n]
		clear(b[copy(b, data):])
		data = b
	}
	_, err := m.f.WriteAt(data[:n], m.byteOff(page))
	return err
}

// Load copies the whole run out of the image mapping. Where the image is not
// mapped (Direct, off Linux) it is one pread, bounced through an aligned
// buffer in Direct mode. After Close there is no mapping and the closed
// file's pread fails with os.ErrClosed.
func (m media) Load(page int, dst []byte) error {
	off := m.byteOff(page)
	m.mapMu.RLock()
	defer m.mapMu.RUnlock()
	if m.mapped != nil {
		copy(dst, m.mapped[off:off+int64(len(dst))])
		return nil
	}
	if !m.cfg.Direct {
		_, err := m.f.ReadAt(dst, off)
		return err
	}
	bp := m.transferBuf(len(dst))
	defer m.bufs.Put(bp)
	b := (*bp)[:len(dst)]
	_, err := m.f.ReadAt(b, off)
	if err == nil {
		copy(dst, b)
	}
	return err
}

// transferBuf takes a pooled transfer buffer of at least n bytes; the caller
// returns it to d.bufs. One too short for the run is dropped for one that
// fits, so the pool settles at the longest run in use.
func (d *Device) transferBuf(n int) *[]byte {
	bp := d.bufs.Get().(*[]byte)
	if cap(*bp) < n {
		bp = d.newBuf(n)
	}
	return bp
}

// newBuf allocates an n-byte transfer buffer, directAlign-aligned in Direct
// mode.
func (d *Device) newBuf(n int) *[]byte {
	if d.cfg.Direct {
		return alignedBuf(n)
	}
	b := make([]byte, n)
	return &b
}

// Erase best-effort hole-punches the zone's file range (Linux) to release
// its blocks; correctness never depends on it.
func (m media) Erase(zone int) {
	punchHole(m.f, m.byteOff(zone*m.cfg.PagesPerZone), int64(m.cfg.PagesPerZone)*int64(m.cfg.PageSize))
}

// Done reports the wall-clock completion time: the I/O has already happened.
func (m media) Done(device.Op, int) time.Duration { return m.cfg.Clock.Now() }

// Close unmaps the image, releases the file descriptor and, when
// Config.RemoveOnClose is set, deletes the image. In Persist mode (and not
// RemoveOnClose) it first rewrites and syncs the superblock, making the image
// warm-openable. Safe to call more than once; later calls return the first
// result. A read racing Close returns its pages or an error wrapping
// os.ErrClosed, never a fault. Engines never close their device — whoever
// opened it does.
func (d *Device) Close() error {
	d.closeOnce.Do(func() {
		if d.cfg.Persist && !d.cfg.RemoveOnClose {
			d.closeErr = d.flushMeta()
		}
		d.mapMu.Lock()
		if d.mapped != nil {
			if uerr := unmapImage(d.mapped); uerr != nil && d.closeErr == nil {
				d.closeErr = uerr
			}
			d.mapped = nil
		}
		d.mapMu.Unlock()
		if cerr := d.f.Close(); cerr != nil && d.closeErr == nil {
			d.closeErr = cerr
		}
		if d.cfg.RemoveOnClose {
			if rerr := os.Remove(d.cfg.Path); rerr != nil && d.closeErr == nil {
				d.closeErr = rerr
			}
		}
	})
	return d.closeErr
}
