package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nemo"
)

// This file runs one workload once: set-up (open, build, prefill, untimed
// warm-up), then a timed window of a fixed operation count driven by two
// closed-loop clients, with the counters of every layer sampled at the
// window's edges.

// runConfig is one run of one workload.
type runConfig struct {
	wl     workload
	sut    sutSpec
	seed   int64
	iters  int    // timed-window iterations per client
	setups int    // timed set-ups; the window runs on the last one
	base   string // directory the system's own directory is made in

	// Traced run only: keys sampled by the census and by each side of a
	// restart cycle.
	censusKeys, restartKeys int
}

// engineSample is every public engine counter at one instant.
type engineSample struct {
	stats        nemo.Stats
	extra        nemo.CacheStats
	pbfgLookups  uint64
	pbfgMisses   uint64
	dev          nemo.DeviceStats
	mem          runtime.MemStats
	cpu          time.Duration
	serverFields map[string]uint64
}

func sampleEngine(sys *system) engineSample {
	s := engineSample{
		stats: sys.cache.Stats(),
		extra: sys.cache.Extra(),
		dev:   sys.raw.Stats(),
		cpu:   processCPU(),
	}
	for i := 0; i < sys.cache.NumShards(); i++ {
		l, m, _ := sys.cache.Shard(i).PBFGStats()
		s.pbfgLookups += l
		s.pbfgMisses += m
	}
	runtime.ReadMemStats(&s.mem)
	if sys.srv != nil {
		s.serverFields = make(map[string]uint64)
		for _, f := range sys.srv.Fields() {
			s.serverFields[f.Name] = f.Value
		}
	}
	return s
}

// clock is the benchmark's monotonic time in nanoseconds.
var clockEpoch = time.Now()

func clock() int64 { return int64(time.Since(clockEpoch)) }

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is what one run measured.
type window struct {
	cfg     runConfig
	setupS  []float64 // one per timed set-up
	clients [nConns]*clientStats
	total   counters
	before  engineSample
	after   engineSample // sampled after Drain, before the forced GC
	heap    uint64       // HeapAlloc after a forced GC at window end, minus the baseline
	heapObj uint64
}

// client is what the window loop needs from a wire or a library client.
type client interface {
	prefill(stop *atomic.Bool) error
	// step runs one iteration: a round trip (plus the demand fill of its
	// misses), or one Get (plus its Set). st is nil outside the window.
	step(st *clientStats, seg int) error
	setupCounters() *counters
}

var errStopped = errors.New("benchmark: run cancelled")

// prefillDepth is how many SETs set-up pipelines per round trip.
const prefillDepth = 32

func (c *wireClient) setupCounters() *counters { return &c.setup }

func (c *wireClient) prefill(stop *atomic.Bool) error {
	for done := false; !done; {
		if stop.Load() {
			return errStopped
		}
		c.b.reset()
		for c.b.n < prefillDepth {
			id, ok := c.gen.prefillNext()
			if !ok {
				done = true
				break
			}
			c.gen.addSet(&c.b, id)
		}
		if c.b.n == 0 {
			break
		}
		if err := c.roundTrip(nil, 0); err != nil {
			return err
		}
	}
	return nil
}

func (c *wireClient) step(st *clientStats, seg int) error {
	c.gen.next(&c.b)
	if err := c.roundTrip(st, seg); err != nil {
		return err
	}
	if !c.gen.wl.DemandFill || len(c.missed) == 0 {
		return nil
	}
	c.b.reset()
	for _, id := range c.missed {
		c.gen.addSet(&c.b, id)
	}
	return c.roundTrip(st, seg)
}

// libClient is lib_direct's client: it calls the engine, no server between.
type libClient struct {
	gen      *generator
	eng      nemo.EngineV2
	key, val []byte
	setup    counters
}

func newLibClient(gen *generator, eng nemo.EngineV2) *libClient {
	return &libClient{gen: gen, eng: eng, key: make([]byte, 0, 256), val: make([]byte, 0, maxValue)}
}

func (c *libClient) setupCounters() *counters { return &c.setup }

func (c *libClient) set(id int, cnt *counters) (ok bool) {
	version := c.gen.led.nextVersion(id)
	c.val = appendValue(c.val[:0], id, version, c.gen.shape.valueSize(id))
	cnt.attempted++
	cnt.sets++
	cnt.userBytes += int64(len(c.key) + len(c.val))
	if err := c.eng.Set(c.key, c.val); err != nil {
		cnt.failed++
		return false
	}
	c.gen.led.ackSet(id, version)
	return true
}

func (c *libClient) prefill(stop *atomic.Bool) error {
	for i := 0; ; i++ {
		if i%1024 == 0 && stop.Load() {
			return errStopped
		}
		id, ok := c.gen.prefillNext()
		if !ok {
			return nil
		}
		c.key = c.gen.shape.appendKey(c.key[:0], id)
		c.set(id, &c.setup)
	}
}

func (c *libClient) step(st *clientStats, seg int) error {
	cnt := &c.setup
	if st != nil {
		cnt = &st.counters
	}
	id := c.gen.ownKey()
	ack := c.gen.led.ackState(id)
	c.key = c.gen.shape.appendKey(c.key[:0], id)
	cnt.attempted++
	cnt.getKeys++
	t0 := clock()
	v, hit := c.eng.Get(c.key)
	t1 := clock()
	ops := int64(1)
	if hit {
		if cnt.countHit(c.gen.led.judge(id, ack, v)) {
			cnt.failed++
		}
	} else {
		c.set(id, cnt)
		ops++
	}
	if st != nil {
		st.getLat[seg].record(t1 - t0)
		if !hit {
			st.setLat[seg].record(clock() - t1)
		}
		st.segOps[seg] += ops
	}
	return nil
}

// runWindow drives one client through iters iterations cut into segments.
func runWindow(c client, iters int, st *clientStats, stop *atomic.Bool) error {
	if st != nil {
		st.segEnd[0] = clock()
	}
	for seg := 0; seg < segments; seg++ {
		for n := iters*(seg+1)/segments - iters*seg/segments; n > 0; n-- {
			if stop.Load() {
				return errStopped
			}
			if err := c.step(st, seg); err != nil {
				return err
			}
		}
		if st != nil {
			st.segEnd[seg+1] = clock()
		}
	}
	return nil
}

// both runs f for every client at once and returns the first error.
func both(clients []client, f func(i int, c client) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shapeOf is the workload's key space on this system.
func shapeOf(wl workload, sut sutSpec) *keyShape {
	if wl.Name == wlTwitterMix {
		return twitterShape(twitterWSSPools * sut.poolBytes())
	}
	return fixedShape(wl.Keys, wl.KeySize, wl.ValueSize)
}

// run performs cfg's set-ups and timed window. It returns the window and the
// still-open system (for the traced run's census and restart ledger); the
// caller closes it. On error nothing is left open.
func run(ctx context.Context, cfg runConfig, tr *tracer) (w *window, sys *system, err error) {
	wl := cfg.wl
	shape := shapeOf(wl, cfg.sut)
	led := newLedger(shape.keys)
	w = &window{cfg: cfg}
	wire := make([]*wireClient, nConns)
	for i := range w.clients {
		w.clients[i] = new(clientStats)
		if wl.Wire {
			wire[i] = newWireClient(tr)
		}
	}
	// Everything the generator side owns is allocated: what the heap grows
	// by from here is the system under test.
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var stop atomic.Bool
	var conns atomic.Pointer[[]net.Conn]
	cancelWatch := context.AfterFunc(ctx, func() {
		stop.Store(true)
		if cs := conns.Load(); cs != nil {
			for _, nc := range *cs {
				nc.SetDeadline(time.Now())
			}
		}
	})
	defer cancelWatch()
	defer func() {
		if err != nil && sys != nil {
			sys.close()
			sys = nil
		}
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()

	warm := int(float64(cfg.iters) * warmupShare)
	clients := make([]client, nConns)
	for n := 0; n < cfg.setups; n++ {
		if sys != nil {
			if err = sys.close(); err != nil {
				return nil, nil, err
			}
			sys = nil
			led.reset()
		}
		t0 := time.Now()
		if sys, err = openSystem(cfg.base, cfg.sut, wl.Wire, tr); err != nil {
			return nil, nil, err
		}
		open := append([]net.Conn(nil), sys.conns...)
		conns.Store(&open)
		for i := range clients {
			gen := newGenerator(wl, shape, led, cfg.seed, i, cfg.sut.poolBytes())
			if wl.Wire {
				wire[i].bind(gen, sys.conns[i])
				clients[i] = wire[i]
			} else {
				clients[i] = newLibClient(gen, sys.eng)
			}
		}
		err = both(clients, func(_ int, c client) error {
			if err := c.prefill(&stop); err != nil {
				return err
			}
			return runWindow(c, warm, nil, &stop)
		})
		if err != nil {
			return nil, sys, fmt.Errorf("set-up: %w", err)
		}
		for _, c := range clients {
			if f := c.setupCounters().failed; f > 0 {
				return nil, sys, fmt.Errorf("set-up: %d operations failed", f)
			}
		}
		if err = sys.eng.Drain(); err != nil {
			return nil, sys, fmt.Errorf("set-up: drain: %w", err)
		}
		w.setupS = append(w.setupS, time.Since(t0).Seconds())
	}

	if tr != nil {
		tr.reset()
	}
	w.before = sampleEngine(sys)
	err = both(clients, func(i int, c client) error {
		return runWindow(c, cfg.iters, w.clients[i], &stop)
	})
	if err != nil {
		return nil, sys, fmt.Errorf("timed window: %w", err)
	}
	cpu := processCPU()
	if err = sys.eng.Drain(); err != nil {
		return nil, sys, fmt.Errorf("drain after the window: %w", err)
	}
	w.after = sampleEngine(sys)
	w.after.cpu = cpu
	for _, st := range w.clients {
		w.total.add(&st.counters)
	}
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if end.HeapAlloc > base.HeapAlloc {
		w.heap = end.HeapAlloc - base.HeapAlloc
	}
	w.heapObj = end.HeapObjects
	// The generator side was in the baseline, so it must still be in the
	// heap now.
	runtime.KeepAlive(led)
	runtime.KeepAlive(wire)
	runtime.KeepAlive(clients)
	return w, sys, nil
}
