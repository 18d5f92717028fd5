package main

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"nemo"
)

// driveOneConnection sets a smoke system up and drives it from connection 0
// alone, so the engine sees one deterministic request order, and returns the
// engine's and the device's counters afterwards. Flushers is 0: a flush then
// runs inline at the insert that triggered it, not whenever a flusher
// goroutine gets to it.
func driveOneConnection(t *testing.T, wl workload, tr *tracer) (nemo.Stats, nemo.DeviceStats) {
	t.Helper()
	cfg := smokeConfig(wl, t.TempDir())
	cfg.sut.Flushers = 0
	sys, err := openSystem(cfg.base, cfg.sut, cfg.wl.Wire, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	shape := shapeOf(cfg.wl, cfg.sut)
	gen := newGenerator(cfg.wl, shape, newLedger(shape.keys), cfg.seed, 0, cfg.sut.poolBytes())
	var c client
	if cfg.wl.Wire {
		wc := newWireClient(tr)
		wc.bind(gen, sys.conns[0])
		c = wc
	} else {
		c = newLibClient(gen, sys.eng)
	}
	var stop atomic.Bool
	st := new(clientStats)
	if err := c.prefill(&stop); err != nil {
		t.Fatal(err)
	}
	if err := runWindow(c, 400, st, &stop); err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 || c.setupCounters().failed != 0 {
		t.Fatalf("%d + %d commands failed", c.setupCounters().failed, st.failed)
	}
	if err := sys.eng.Drain(); err != nil {
		t.Fatal(err)
	}
	return sys.cache.Stats(), sys.raw.Stats()
}

// TestTracingChangesNothing: the same single-connection run leaves identical
// engine and device counters with and without the decorators.
func TestTracingChangesNothing(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			engine, device := driveOneConnection(t, wl, nil)
			tr := newTracer()
			engineT, deviceT := driveOneConnection(t, wl, tr)
			if engine != engineT {
				t.Errorf("engine stats differ:\nuntraced %+v\ntraced   %+v", engine, engineT)
			}
			if device != deviceT {
				t.Errorf("device stats differ:\nuntraced %+v\ntraced   %+v", device, deviceT)
			}
			if device.PagesWritten == 0 || engine.Gets == 0 {
				t.Errorf("the run did not reach the device: %+v %+v", engine, device)
			}
			if tr.agg[opDevAppend].n != deviceT.PagesWritten || tr.agg[opDevRead].n != deviceT.PagesRead {
				t.Errorf("traced %d appended and %d read pages, the device counted %d and %d",
					tr.agg[opDevAppend].n, tr.agg[opDevRead].n, deviceT.PagesWritten, deviceT.PagesRead)
			}
		})
	}
}

// TestSpanParents: a device span inside an engine span belongs to it; one
// enclosed by no engine span is flusher work; an append inside a Get's
// interval is flusher work too; an engine span inside a round trip belongs
// to the wire, one outside is a direct call.
func TestSpanParents(t *testing.T) {
	sys, err := openSystem(t.TempDir(), smokeSUT(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	tr := newTracer()
	dev := tracedDevice{sys.raw, tr}
	page := make([]byte, sys.spec.PageSize)

	if _, _, err := dev.AppendPage(0, page); err != nil { // no engine span open
		t.Fatal(err)
	}
	wireID, wireStart := tr.begin(opWireBatch)
	getID, getStart := tr.begin(opCoreGetMany)
	if _, err := dev.ReadPage(0, page); err != nil { // inside the GetMany
		t.Fatal(err)
	}
	if _, _, err := dev.AppendPage(0, page); err != nil { // a flusher beside the GetMany
		t.Fatal(err)
	}
	tr.end(getID, opCoreGetMany, getStart, 1, false)
	tr.end(wireID, opWireBatch, wireStart, 1, false)
	setID, setStart := tr.begin(opCoreSet)                // a library call: no round trip open
	if _, _, err := dev.AppendPage(0, page); err != nil { // its inline flush
		t.Fatal(err)
	}
	tr.end(setID, opCoreSet, setStart, 1, false)

	var got []string
	for _, s := range tr.spans {
		got = append(got, spanOpNames[s.op]+"<-"+parentLayer(s))
	}
	want := []string{
		"device/append<-flusher",
		"device/read<-core",
		"device/append<-flusher",
		"core/getmany<-wire",
		"wire/batch<-client",
		"device/append<-core",
		"core/set<-direct",
	}
	if len(got) != len(want) {
		t.Fatalf("spans %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d is %s, want %s", i, got[i], want[i])
		}
	}
	if tr.spans[1].parent != getID || tr.spans[3].parent != wireID || tr.spans[5].parent != setID {
		t.Errorf("parents %d %d %d, want %d %d %d",
			tr.spans[1].parent, tr.spans[3].parent, tr.spans[5].parent, getID, wireID, setID)
	}
	if tr.devBackground == 0 || tr.devUnder[opCoreGetMany] == 0 || tr.devUnder[opCoreSet] == 0 || tr.coreUnderWire == 0 {
		t.Errorf("aggregates: background %d, under getmany %d, under set %d, core under wire %d",
			tr.devBackground, tr.devUnder[opCoreGetMany], tr.devUnder[opCoreSet], tr.coreUnderWire)
	}
}

// TestRunIsCancellable: a cancelled context ends a run with its error.
func TestRunIsCancellable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wl, _ := workloadByName(wlGetFits)
	if _, err := measureEndToEnd(ctx, smokeConfig(wl, t.TempDir())); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
