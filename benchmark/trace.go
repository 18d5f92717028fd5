package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"nemo"
)

// This file is the traced run's instrumentation. It sits in the benchmark's
// own files, around the calls into each layer: the client times its round
// trips, tracedEngine sits between server and engine, tracedDevice between
// engine and device. A span's parent is found by interval containment — the
// latest-started span of the enclosing layer that was open when the child
// began and still open when it ended — because the Device and EngineV2
// interfaces carry no request identity. A device span enclosed by no engine
// span is flusher work.

type spanOp uint8

const (
	opWireBatch spanOp = iota
	opCoreGet
	opCoreGetMany
	opCoreSet // Set, SetAsync, SetMany
	opCoreDelete
	opDevRead   // ReadPage, ReadPages
	opDevAppend // AppendPage, Append
	opDevReset
	numSpanOps
)

var spanOpNames = [numSpanOps]string{
	"wire/batch", "core/get", "core/getmany", "core/set", "core/delete",
	"device/read", "device/append", "device/reset",
}

func (o spanOp) isCore() bool { return o >= opCoreGet && o <= opCoreDelete }

// span is one recorded interval; times are nanoseconds on clock(). parent is
// the enclosing span's id, 0 for none.
type span struct {
	id, parent uint32
	op         spanOp
	n          uint32 // keys (wire, core) or pages (device)
	start, end int64
}

// opAgg is the exact online aggregate of one span kind.
type opAgg struct {
	calls, n, errs uint64
	busy           int64
	lat            hist
}

// openSpan is a wire or core span that has begun and not ended.
type openSpan struct {
	id    uint32
	op    spanOp
	start int64
}

// maxSpans caps the buffered spans (40 B each); aggregates stay exact past
// it and trace.spans_dropped says how many were not kept.
const maxSpans = 1 << 18

type tracer struct {
	mu      sync.Mutex
	nextID  uint32
	open    []openSpan
	spans   []span
	dropped uint64
	agg     [numSpanOps]opAgg

	// Device time and pages by the kind of core span that enclosed them
	// (indexed by that span's kind; the other entries stay zero).
	devUnder      [numSpanOps]int64
	devPagesUnder [numSpanOps]uint64
	devBackground int64
	// Core time enclosed by a client round trip.
	coreUnderWire int64
}

func newTracer() *tracer {
	return &tracer{
		open:  make([]openSpan, 0, 64),
		spans: make([]span, 0, maxSpans),
	}
}

// reset clears every aggregate and buffered span; set-up traffic is traced
// through the same decorators and must not count.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.agg = [numSpanOps]opAgg{}
	t.devUnder = [numSpanOps]int64{}
	t.devPagesUnder = [numSpanOps]uint64{}
	t.devBackground, t.coreUnderWire = 0, 0
}

// begin opens a wire or core span.
func (t *tracer) begin(op spanOp) (id uint32, start int64) {
	start = clock()
	t.mu.Lock()
	t.nextID++
	id = t.nextID
	t.open = append(t.open, openSpan{id, op, start})
	t.mu.Unlock()
	return id, start
}

// enclosing returns the latest-started open span that began no later than
// start and that accept admits (0 for none). Caller holds t.mu.
func (t *tracer) enclosing(start int64, accept func(spanOp) bool) (id uint32, op spanOp) {
	best := int64(-1)
	for _, o := range t.open {
		if o.start <= start && o.start > best && accept(o.op) {
			best, id, op = o.start, o.id, o.op
		}
	}
	return id, op
}

func acceptWire(o spanOp) bool { return o == opWireBatch }
func acceptCore(o spanOp) bool { return o.isCore() }

// acceptWriter admits the core spans that may flush inline: an append or a
// reset inside a Get's interval belongs to a flusher that ran beside it.
func acceptWriter(o spanOp) bool { return o == opCoreSet || o == opCoreDelete }

// end closes a span opened by begin.
func (t *tracer) end(id uint32, op spanOp, start int64, n int, failed bool) {
	end := clock()
	t.mu.Lock()
	for i := range t.open {
		if t.open[i].id == id {
			t.open[i] = t.open[len(t.open)-1]
			t.open = t.open[:len(t.open)-1]
			break
		}
	}
	var parent uint32
	if op.isCore() {
		if parent, _ = t.enclosing(start, acceptWire); parent != 0 {
			t.coreUnderWire += end - start
		}
	}
	t.record(span{id, parent, op, uint32(n), start, end}, failed)
	t.mu.Unlock()
}

// leaf records a device span, which encloses nothing.
func (t *tracer) leaf(op spanOp, start int64, n int, failed bool) {
	end := clock()
	accept := acceptCore
	if op != opDevRead {
		accept = acceptWriter
	}
	t.mu.Lock()
	t.nextID++
	parent, pop := t.enclosing(start, accept)
	if parent != 0 {
		t.devUnder[pop] += end - start
		t.devPagesUnder[pop] += uint64(n)
	} else {
		t.devBackground += end - start
	}
	t.record(span{t.nextID, parent, op, uint32(n), start, end}, failed)
	t.mu.Unlock()
}

// record folds one finished span into the aggregates and, below the cap,
// the buffer. Caller holds t.mu.
func (t *tracer) record(s span, failed bool) {
	a := &t.agg[s.op]
	a.calls++
	a.n += uint64(s.n)
	a.busy += s.end - s.start
	a.lat.record(s.end - s.start)
	if failed {
		a.errs++
	}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// writeSpans writes the buffered spans, one per line: id, parent id, span
// kind, the parent's layer, start and duration in ns, keys or pages.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tparent\tspan\tparent_layer\tstart_ns\tdur_ns\tn")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\n",
			s.id, s.parent, spanOpNames[s.op], parentLayer(s), s.start, s.end-s.start, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parentLayer names who caused a span: a device span with no enclosing
// engine span is flusher work, an engine span with no enclosing round trip
// is a direct library call, and a round trip is the client's own.
func parentLayer(s span) string {
	switch {
	case s.op == opWireBatch:
		return "client"
	case s.op.isCore() && s.parent != 0:
		return "wire"
	case s.op.isCore():
		return "direct"
	case s.parent != 0:
		return "core"
	}
	return "flusher"
}

// tracedDevice embeds the interface it wraps and overrides only the I/O
// methods, so a method added to nemo.Device later passes through untraced
// instead of breaking the build.
type tracedDevice struct {
	nemo.Device
	t *tracer
}

func (d tracedDevice) ReadPage(page int, dst []byte) (time.Duration, error) {
	start := clock()
	done, err := d.Device.ReadPage(page, dst)
	d.t.leaf(opDevRead, start, 1, err != nil)
	return done, err
}

func (d tracedDevice) ReadPages(pages []int, dst [][]byte) (time.Duration, error) {
	start := clock()
	done, err := d.Device.ReadPages(pages, dst)
	d.t.leaf(opDevRead, start, len(pages), err != nil)
	return done, err
}

func (d tracedDevice) AppendPage(zoneID int, data []byte) (int, time.Duration, error) {
	start := clock()
	page, done, err := d.Device.AppendPage(zoneID, data)
	d.t.leaf(opDevAppend, start, 1, err != nil)
	return page, done, err
}

func (d tracedDevice) Append(zoneID int, data []byte) (int, time.Duration, error) {
	start := clock()
	first, done, err := d.Device.Append(zoneID, data)
	ps := d.Device.PageSize()
	d.t.leaf(opDevAppend, start, (len(data)+ps-1)/ps, err != nil)
	return first, done, err
}

func (d tracedDevice) ResetZone(zoneID int) (time.Duration, error) {
	start := clock()
	done, err := d.Device.ResetZone(zoneID)
	d.t.leaf(opDevReset, start, 1, err != nil)
	return done, err
}

// tracedEngine is tracedDevice's twin at the EngineV2 boundary.
type tracedEngine struct {
	nemo.EngineV2
	t *tracer
}

func (e tracedEngine) Get(key []byte) ([]byte, bool) {
	id, start := e.t.begin(opCoreGet)
	v, hit := e.EngineV2.Get(key)
	e.t.end(id, opCoreGet, start, 1, false)
	return v, hit
}

func (e tracedEngine) GetMany(keys [][]byte) ([][]byte, []bool) {
	id, start := e.t.begin(opCoreGetMany)
	vs, hits := e.EngineV2.GetMany(keys)
	e.t.end(id, opCoreGetMany, start, len(keys), false)
	return vs, hits
}

func (e tracedEngine) Set(key, value []byte) error {
	id, start := e.t.begin(opCoreSet)
	err := e.EngineV2.Set(key, value)
	e.t.end(id, opCoreSet, start, 1, err != nil)
	return err
}

func (e tracedEngine) SetAsync(key, value []byte) error {
	id, start := e.t.begin(opCoreSet)
	err := e.EngineV2.SetAsync(key, value)
	e.t.end(id, opCoreSet, start, 1, err != nil)
	return err
}

func (e tracedEngine) SetMany(keys, values [][]byte) error {
	id, start := e.t.begin(opCoreSet)
	err := e.EngineV2.SetMany(keys, values)
	e.t.end(id, opCoreSet, start, len(keys), err != nil)
	return err
}

func (e tracedEngine) Delete(key []byte) error {
	id, start := e.t.begin(opCoreDelete)
	err := e.EngineV2.Delete(key)
	e.t.end(id, opCoreDelete, start, 1, err != nil)
	return err
}
