package device_test

// Differential contract test: seeded random histories applied step by step
// to a flashsim device, a filedev device and an independent in-test model of
// the package comment's contract. After every step all three must agree on
// what the call returned (page index, read bytes, error nil-ness, the
// ErrTooManyOpenZones sentinel, whether a completion time came back) and on
// the state it left (every write pointer, the open-zone count, Stats, and
// the Generation.Writes delta). The model is what keeps this a guard once
// both backends share one state machine: a bug in the shared core shows up
// as sim and file agreeing with each other and not with the model.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nemo/internal/device"
	"nemo/internal/filedev"
	"nemo/internal/flashsim"
	"nemo/internal/vtime"
)

var errHook = errors.New("differential: hook fault")

type opKind int

const (
	opAppendPage opKind = iota
	opAppend
	opReadPage
	opReadPages
	opReset
)

// op is one device call with its arguments fully drawn, so every subject
// and the model see the same one.
type op struct {
	kind   opKind
	zone   int
	data   []byte
	pages  []int
	bufLen int  // length of each read destination buffer
	slab   bool // the read buffers are consecutive slices of one array
}

func (o op) String() string {
	switch o.kind {
	case opAppendPage:
		return fmt.Sprintf("AppendPage(zone %d, %d bytes)", o.zone, len(o.data))
	case opAppend:
		return fmt.Sprintf("Append(zone %d, %d bytes)", o.zone, len(o.data))
	case opReadPage:
		return fmt.Sprintf("ReadPage(%d, dst %d)", o.pages[0], o.bufLen)
	case opReadPages:
		return fmt.Sprintf("ReadPages(%v, dst %d, slab %v)", o.pages, o.bufLen, o.slab)
	default:
		return fmt.Sprintf("ResetZone(%d)", o.zone)
	}
}

// outcome is everything a call returned that the contract fixes. done is
// compared only for zero-ness: the backends' clocks differ by design.
type outcome struct {
	Page     int
	HasDone  bool
	Failed   bool
	TooMany  bool
	ReadBufs [][]byte
}

// state is the device state the contract fixes after every step.
type state struct {
	WPs    []int
	Open   int
	Stats  device.Stats
	Writes uint64
}

func observe(d device.Device, writes0 uint64) state {
	s := state{Open: d.OpenZones(), Stats: d.Stats(), Writes: d.Generation().Writes - writes0}
	for z := 0; z < d.Zones(); z++ {
		s.WPs = append(s.WPs, d.ZoneWP(z))
	}
	return s
}

// readBufs builds n destination buffers pre-filled with a sentinel, so
// "untouched" and "zero-filled" are distinguishable: separate arrays, or
// consecutive slices of one (page-sized ones are then adjacent, so a run of
// pages read into them is one media load).
func readBufs(n, size int, slab bool) [][]byte {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{0xA5}, size)
	}
	if slab {
		one := bytes.Repeat([]byte{0xA5}, n*size)
		for i := range bufs {
			bufs[i] = one[i*size : (i+1)*size]
		}
	}
	return bufs
}

func result(page int, done time.Duration, err error, bufs [][]byte) outcome {
	return outcome{
		Page:     page,
		HasDone:  done != 0,
		Failed:   err != nil,
		TooMany:  errors.Is(err, device.ErrTooManyOpenZones),
		ReadBufs: bufs,
	}
}

func apply(d device.Device, o op) outcome {
	switch o.kind {
	case opAppendPage:
		page, done, err := d.AppendPage(o.zone, o.data)
		return result(page, done, err, nil)
	case opAppend:
		page, done, err := d.Append(o.zone, o.data)
		return result(page, done, err, nil)
	case opReadPage:
		bufs := readBufs(1, o.bufLen, false)
		done, err := d.ReadPage(o.pages[0], bufs[0])
		return result(0, done, err, bufs)
	case opReadPages:
		bufs := readBufs(len(o.pages), o.bufLen, o.slab)
		done, err := d.ReadPages(o.pages, bufs)
		return result(0, done, err, bufs)
	default:
		done, err := d.ResetZone(o.zone)
		return result(0, done, err, nil)
	}
}

// model is the contract restated without locks, files or clocks.
type model struct {
	g       device.Geometry
	wp      []int
	pages   map[int][]byte
	stats   device.Stats
	writes  uint64
	hookNth int // hooks fail every hookNth-th invocation (0 = no hooks)
	reads   int // read-hook invocations
	appends int // write-hook invocations
	// storeNth makes every storeNth-th page that reaches the medium fail
	// there (0 = the medium never fails), mirroring flakyMedia.
	storeNth int
	stores   int
}

func newModel(g device.Geometry, hookNth int) *model {
	return &model{g: g, wp: make([]int, g.Zones), pages: map[int][]byte{}, hookNth: hookNth}
}

func (m *model) open() int {
	n := 0
	for _, wp := range m.wp {
		if wp > 0 && wp < m.g.PagesPerZone {
			n++
		}
	}
	return n
}

func (m *model) state() state {
	return state{WPs: append([]int(nil), m.wp...), Open: m.open(), Stats: m.stats, Writes: m.writes}
}

var (
	failed  = outcome{Failed: true}
	tooMany = outcome{Failed: true, TooMany: true}
)

func (m *model) hookFails(n *int) bool {
	if m.hookNth == 0 {
		return false
	}
	*n++
	return *n%m.hookNth == 0
}

func (m *model) appendPage(zone int, data []byte) outcome {
	if len(data) > m.g.PageSize {
		return failed // rejected before the hook runs
	}
	return m.appendRun(zone, data, 1)
}

func (m *model) append(zone int, data []byte) outcome {
	if len(data) == 0 {
		return outcome{HasDone: true} // nothing to do, not even validation
	}
	return m.appendRun(zone, data, (len(data)+m.g.PageSize-1)/m.g.PageSize)
}

// appendRun is all-or-nothing: whatever fails, no page of the run is
// written and nothing moves.
func (m *model) appendRun(zone int, data []byte, n int) outcome {
	if zone < 0 || zone >= m.g.Zones || n > m.g.PagesPerZone {
		return failed // rejected before the hook runs
	}
	for range n {
		if m.hookFails(&m.appends) {
			return failed
		}
	}
	wp := m.wp[zone]
	if wp+n > m.g.PagesPerZone {
		return failed
	}
	if wp == 0 && m.g.MaxOpenZones > 0 && m.open() >= m.g.MaxOpenZones {
		return tooMany
	}
	if m.storeNth > 0 {
		for range n {
			if m.stores++; m.stores%m.storeNth == 0 {
				return failed // medium error: nothing moved
			}
		}
	}
	first := zone*m.g.PagesPerZone + wp
	for i := range n {
		page := data[i*m.g.PageSize : min((i+1)*m.g.PageSize, len(data))]
		m.pages[first+i] = append(append([]byte(nil), page...), make([]byte, m.g.PageSize-len(page))...)
	}
	m.wp[zone] += n
	m.stats.PagesWritten += uint64(n)
	m.stats.BytesWritten += uint64(n * m.g.PageSize)
	m.writes += uint64(n)
	return outcome{Page: first, HasDone: true}
}

// readPage fills dst as the contract says and reports whether the read
// succeeded.
func (m *model) readPage(page int, dst []byte) bool {
	if page < 0 || page >= m.g.Zones*m.g.PagesPerZone || len(dst) < m.g.PageSize {
		return false
	}
	if m.hookFails(&m.reads) {
		return false
	}
	clear(dst[:m.g.PageSize])
	if page%m.g.PagesPerZone < m.wp[page/m.g.PagesPerZone] {
		copy(dst, m.pages[page])
	}
	m.stats.PagesRead++
	m.stats.BytesRead += uint64(m.g.PageSize)
	return true
}

func (m *model) apply(o op) outcome {
	switch o.kind {
	case opAppendPage:
		return m.appendPage(o.zone, o.data)
	case opAppend:
		return m.append(o.zone, o.data)
	case opReadPage, opReadPages:
		bufs := readBufs(len(o.pages), o.bufLen, o.slab)
		for i, p := range o.pages {
			if !m.readPage(p, bufs[i]) {
				return outcome{Failed: true, ReadBufs: bufs}
			}
		}
		// An empty ReadPages completes nothing, so it reports no time.
		return outcome{HasDone: len(o.pages) > 0, ReadBufs: bufs}
	default:
		if o.zone < 0 || o.zone >= m.g.Zones {
			return failed
		}
		for p := o.zone * m.g.PagesPerZone; p < (o.zone+1)*m.g.PagesPerZone; p++ {
			delete(m.pages, p)
		}
		m.wp[o.zone] = 0
		m.stats.ZoneResets++
		m.writes++
		return outcome{HasDone: true}
	}
}

// draw picks the next call. It looks at the model's write pointers so the
// interesting boundaries — reads just below, at and beyond a write pointer,
// runs that hit zone-full midway, resets of empty/open/full zones — come up
// far more often than uniform draws would give.
func draw(rng *rand.Rand, m *model) op {
	g := m.g
	zone := rng.Intn(g.Zones)
	if rng.Intn(20) == 0 {
		zone = []int{-1, g.Zones}[rng.Intn(2)] // out of range
	}
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	page := func() int {
		z := rng.Intn(g.Zones)
		switch rng.Intn(8) {
		case 0:
			return []int{-1, g.Zones * g.PagesPerZone}[rng.Intn(2)]
		case 1, 2, 3: // around the write pointer
			off := m.wp[z] - 1 + rng.Intn(3)
			return z*g.PagesPerZone + max(0, min(off, g.PagesPerZone-1))
		default:
			return z*g.PagesPerZone + rng.Intn(g.PagesPerZone)
		}
	}
	bufLen := g.PageSize
	switch rng.Intn(12) {
	case 0:
		bufLen = g.PageSize - 1 // too small
	case 1:
		bufLen = g.PageSize + 7 // the tail past a page stays untouched
	}
	switch r := rng.Intn(100); {
	case r < 30:
		size := g.PageSize
		switch rng.Intn(6) {
		case 0:
			size = rng.Intn(g.PageSize) // short, sometimes empty
		case 1:
			size = 0
		case 2:
			size = g.PageSize + 1 // oversize
		}
		return op{kind: opAppendPage, zone: zone, data: payload(size)}
	case r < 50:
		// 0..PagesPerZone+2 pages with a ragged tail: the longer runs hit
		// zone-full midway on any zone that is not empty.
		size := rng.Intn(g.PagesPerZone+3)*g.PageSize - rng.Intn(g.PageSize/2)
		return op{kind: opAppend, zone: zone, data: payload(max(0, size))}
	case r < 70:
		return op{kind: opReadPage, pages: []int{page()}, bufLen: bufLen}
	case r < 88:
		// Scattered pages, or a run from a page — across a zone boundary,
		// the write pointer or the device's end as it may fall.
		pages := make([]int, rng.Intn(2*g.PagesPerZone/3+1))
		run := rng.Intn(2) == 0
		for i := range pages {
			if pages[i] = page(); run && i > 0 {
				pages[i] = pages[i-1] + 1
			}
		}
		return op{kind: opReadPages, pages: pages, bufLen: bufLen, slab: rng.Intn(3) > 0}
	default:
		return op{kind: opReset, zone: zone}
	}
}

// installHooks makes every nth read and every nth append fail on d, the
// schedule model.hookFails mirrors. Each hook first takes the zone's lock
// through ZoneWP: a device that ran hooks with that lock held would block
// there. Histories are serial, so the hooks run on the test's goroutine.
func installHooks(t *testing.T, d device.Device, nth int) {
	if nth == 0 {
		return
	}
	lockFree := func(zone int) {
		got := make(chan struct{})
		go func() { d.ZoneWP(zone); close(got) }()
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("fault hook for zone %d ran with the zone lock held", zone)
		}
	}
	var reads, appends int
	d.SetReadFault(func(page int) error {
		lockFree(d.ZoneOf(page))
		if reads++; reads%nth == 0 {
			return errHook
		}
		return nil
	})
	d.SetWriteFault(func(zone int) error {
		lockFree(zone)
		if appends++; appends%nth == 0 {
			return errHook
		}
		return nil
	})
}

// subject is one device under test and the Generation.Writes it started
// from.
type subject struct {
	name    string
	dev     device.Device
	writes0 uint64
}

// runHistory drives steps seeded calls through every subject and the model
// and fails on the first disagreement.
func runHistory(t *testing.T, seed int64, steps int, m *model, subjects []subject) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := range subjects {
		installHooks(t, subjects[i].dev, m.hookNth)
		subjects[i].writes0 = subjects[i].dev.Generation().Writes
	}
	for step := 0; step < steps; step++ {
		o := draw(rng, m)
		want := m.apply(o)
		wantState := m.state()
		for _, s := range subjects {
			// Tick, so a successful call's completion time is never zero.
			s.dev.Clock().Advance(time.Microsecond)
			if got := apply(s.dev, o); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d %v on %s:\n got %+v\nwant %+v", seed, step, o, s.name, got, want)
			}
			if got := observe(s.dev, s.writes0); !reflect.DeepEqual(got, wantState) {
				t.Fatalf("seed %d step %d %v left %s in\n got %+v\nwant %+v", seed, step, o, s.name, got, wantState)
			}
		}
	}
}

func TestDifferentialContract(t *testing.T) {
	for _, maxOpen := range []int{0, 2} {
		for _, hookNth := range []int{0, 5} {
			g := device.Geometry{PageSize: 512, PagesPerZone: 8, Zones: 6, MaxOpenZones: maxOpen}
			t.Run(fmt.Sprintf("maxopen=%d/hooks=%d", maxOpen, hookNth), func(t *testing.T) {
				for seed := int64(1); seed <= 6; seed++ {
					sim := flashsim.New(flashsim.Config{
						PageSize: g.PageSize, PagesPerZone: g.PagesPerZone, Zones: g.Zones,
						MaxOpenZones: g.MaxOpenZones, Clock: &vtime.Clock{},
					})
					file, err := filedev.Open(filedev.Config{
						Path:     filepath.Join(t.TempDir(), "diff.img"),
						PageSize: g.PageSize, PagesPerZone: g.PagesPerZone, Zones: g.Zones,
						MaxOpenZones: g.MaxOpenZones, Clock: &vtime.Clock{},
					})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { file.Close() })
					runHistory(t, seed, 500, newModel(g, hookNth),
						[]subject{{name: "sim", dev: sim}, {name: "file", dev: file}})
				}
			})
		}
	}
}
