// Package flashsim simulates a log-structured (zoned) flash device: it is
// the in-memory, virtual-time media under the shared zoned-device state
// machine (internal/device.Zoned), which enforces the write-pattern contract
// — sequential writes within a zone, whole-zone resets, 4 KB page reads —
// and accounts every byte moved, all the write-amplification results depend
// on.
//
// This is the substitute for the Western Digital ZN540 ZNS SSD used by the
// paper. What is the simulator's own: zone contents held in lazily allocated
// memory, and a per-channel virtual-time latency model that reproduces the
// read/write interference driving the paper's tail-latency comparison
// without the host-side noise of real direct I/O. Every flash channel
// carries its own scheduler lock, so independent callers scale like the
// real hardware does.
package flashsim

import (
	"sync"
	"sync/atomic"
	"time"

	"nemo/internal/device"
	"nemo/internal/vtime"
)

// Config describes the simulated device geometry and latency model.
type Config struct {
	// PageSize is the read/program granularity in bytes (default 4096).
	PageSize int
	// PagesPerZone is the zone (erase unit) size in pages (default 256,
	// i.e. 1 MB zones; experiments override this to model large ZNS zones).
	PagesPerZone int
	// Zones is the number of zones on the device (default 64).
	Zones int
	// Channels is the number of independently scheduled flash channels
	// (default 8). Page p is serviced by channel p mod Channels.
	Channels int
	// ReadLatency is the page read (tR + transfer) latency (default 70 µs).
	ReadLatency time.Duration
	// ProgramLatency is the page program latency as observed by the host
	// (default 25 µs: device-side buffering hides most of tPROG, but the
	// channel stays busy, which is what creates read interference).
	ProgramLatency time.Duration
	// MaxOpenZones bounds the number of partially written zones, as real
	// ZNS devices do (the ZN540 allows 14). 0 means unlimited. Opening a
	// zone beyond the limit fails with ErrTooManyOpenZones.
	MaxOpenZones int
	// Clock is the virtual clock; a fresh clock is created when nil so a
	// device is usable standalone.
	Clock *vtime.Clock
}

// eraseLatency is the zone reset latency.
const eraseLatency = 2 * time.Millisecond

// ErrTooManyOpenZones is returned when an append would exceed the device's
// open-zone limit. It is the shared sentinel every backend returns.
var ErrTooManyOpenZones = device.ErrTooManyOpenZones

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
	if c.Channels == 0 {
		c.Channels = 8
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = 70 * time.Microsecond
	}
	if c.ProgramLatency == 0 {
		c.ProgramLatency = 25 * time.Microsecond
	}
	if c.Clock == nil {
		c.Clock = &vtime.Clock{}
	}
	return c
}

// channel is one flash channel's scheduler state, padded to its own cache
// line so concurrent Done calls on different channels don't false-share.
type channel struct {
	mu   sync.Mutex
	free time.Duration // busy-until in virtual time
	_    [48]byte      // pad the struct to a 64-byte stride
}

// Device is a simulated zoned flash device: the shared state machine over
// the simulator's media. All methods are safe for concurrent use.
type Device struct {
	*device.Zoned
	m media
}

// media holds what is the simulator's: the effective configuration, zone
// memory (guarded by Zoned's zone locks) and the channel schedulers.
type media struct {
	cfg   Config
	lat   [3]time.Duration // service time by device.Op
	zones [][]byte         // lazily allocated zone payloads; nil once reset
	chans []channel
}

// bootSeq issues process-unique Boot stamps: a simulated device's contents
// never survive the process, so every New is a fresh cold format and
// uniqueness within the process is exactly the right scope.
var bootSeq atomic.Uint64

// New creates a device with the given configuration (zero fields take
// defaults).
func New(cfg Config) *Device {
	cfg = cfg.withDefaults()
	d := &Device{m: media{
		cfg: cfg,
		lat: [3]time.Duration{
			device.OpRead:    cfg.ReadLatency,
			device.OpProgram: cfg.ProgramLatency,
			device.OpErase:   eraseLatency,
		},
		zones: make([][]byte, cfg.Zones),
		chans: make([]channel, cfg.Channels),
	}}
	g := device.Geometry{
		PageSize:     cfg.PageSize,
		PagesPerZone: cfg.PagesPerZone,
		Zones:        cfg.Zones,
		MaxOpenZones: cfg.MaxOpenZones,
	}
	d.Zoned = device.NewZoned("flashsim", g, cfg.Clock, &d.m, device.Generation{Boot: bootSeq.Add(1)}, nil)
	return d
}

// Config returns the effective configuration (defaults applied).
func (d *Device) Config() Config { return d.m.cfg }

// Close releases nothing: the simulator holds only memory. Provided to
// satisfy the device contract so openers can close any backend uniformly.
func (d *Device) Close() error { return nil }

// Device implements the zoned-device contract.
var _ device.Device = (*Device)(nil)

// Store copies the run into zone memory with one copy, zero-padding a short
// last page; Zoned books its program time page by page through Done. Memory
// cannot fail.
func (m *media) Store(page int, data []byte) error {
	zone, ps := page/m.cfg.PagesPerZone, m.cfg.PageSize
	if m.zones[zone] == nil {
		m.zones[zone] = make([]byte, m.cfg.PagesPerZone*ps)
	}
	off := page % m.cfg.PagesPerZone * ps
	dst := m.zones[zone][off : off+max(1, (len(data)+ps-1)/ps)*ps]
	clear(dst[copy(dst, data):])
	return nil
}

// Load copies a written run out of zone memory.
func (m *media) Load(page int, dst []byte) error {
	off := page % m.cfg.PagesPerZone * m.cfg.PageSize
	copy(dst, m.zones[page/m.cfg.PagesPerZone][off:])
	return nil
}

// Erase frees the zone's memory.
func (m *media) Erase(zone int) { m.zones[zone] = nil }

// Mutating is a no-op: the simulator persists nothing.
func (m *media) Mutating() {}

// Done books the op's service time on the channel serving the page (page p
// is serviced by channel p mod Channels) and returns its virtual completion
// time. Takes only the channel's own lock.
func (m *media) Done(op device.Op, page int) time.Duration {
	ch := &m.chans[page%m.cfg.Channels]
	ch.mu.Lock()
	start := m.cfg.Clock.Now()
	if ch.free > start {
		start = ch.free
	}
	done := start + m.lat[op]
	ch.free = done
	ch.mu.Unlock()
	return done
}
