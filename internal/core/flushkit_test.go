package core

// Tests for flush kits (writepath.go) and the resident-memory ledger
// (stats.go): working memory follows the flushes in flight, not the shards,
// and the ledger accounts for what the engine keeps on the heap.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"nemo/internal/flashsim"
)

// kitGeom is a 4 KiB-page device of 64-page zones carrying totalData data
// zones split over the given shard count, with the default configuration.
func kitGeom(t *testing.T, shards, totalData, flushers int) (*flashsim.Device, *Sharded) {
	t.Helper()
	const ppz = 64
	zones := DeviceZonesFor(totalData, shards)
	dev := flashsim.New(flashsim.Config{PageSize: 4096, PagesPerZone: ppz, Zones: zones})
	cfg := DefaultConfig(dev, totalData)
	cfg.Shards = shards
	cfg.Flushers = flushers
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return dev, s
}

func kitKey(i int) []byte { return []byte(fmt.Sprintf("kit-key-%09d", i)) }

// kitValue is 80 bytes whose content names the key, so a page or filter
// assembled in a buffer two flushes shared would surface as wrong bytes.
func kitValue(i int) []byte { return []byte(fmt.Sprintf("kit-value-%09d-%060d", i, i)) }

// shardOfZone maps a device zone to the shard whose slice it lies in.
func shardOfZone(s *Sharded, zone int) int {
	cfg := s.shards[0].cfg
	per := cfg.DataZones + IndexZonesFor(cfg.DataZones, cfg.SGsPerIndexGroup)
	return zone / per
}

// parkOneFlush installs a write hook that parks the first append into shard
// victim's zones — the flush owner blocks mid-build, holding its kit and no
// lock, before its first window stores a page — and runs observe on every
// other hook call: one per page of every append run.
func parkOneFlush(dev *flashsim.Device, s *Sharded, victim int, observe func(shard int) error) (parked <-chan struct{}, release func()) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	dev.SetWriteFault(func(zone int) error {
		i := shardOfZone(s, zone)
		if i == victim {
			once.Do(func() {
				close(entered)
				<-gate
			})
		}
		if observe != nil {
			return observe(i)
		}
		return nil
	})
	return entered, func() { close(gate) }
}

// saturateKits leaves as many idle kits as can ever be idle: it parks shard
// 0's flush mid-build and flushes shard 1 meanwhile, so two kits are out at
// once and both come back.
func saturateKits(t *testing.T, dev *flashsim.Device, s *Sharded) {
	t.Helper()
	parked, release := parkOneFlush(dev, s, 0, nil)
	done := make(chan error, 1)
	go func() { done <- s.Shard(0).Flush() }()
	<-parked
	if err := s.Shard(1).Flush(); err != nil {
		t.Fatal(err)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	dev.SetWriteFault(nil)
}

// heapAlloc is the live heap after a forced collection, the way
// benchmark/run.go samples engine_heap_mib — less, when dev is not nil, the
// zone memory the simulated device holds for its written zones, which the
// engine does not own.
func heapAlloc(dev *flashsim.Device) uint64 {
	runtime.GC()
	runtime.GC() // a second cycle empties what earlier tests left in sync.Pools
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if dev != nil {
		for z := 0; z < dev.Zones(); z++ {
			if dev.ZoneWP(z) > 0 {
				ms.HeapAlloc -= uint64(dev.PagesPerZone() * dev.PageSize())
			}
		}
	}
	return ms.HeapAlloc
}

// TestResidentBytesLedger drives two pool turnovers of SetAsync + Drain at
// 1, 4 and 8 shards over the same total pool and checks the four things
// the ledger is for:
//
//   - flush kits do not scale with shards: after the kits have been
//     saturated the idle list holds exactly max(1, Flushers) of them at 4
//     and at 8 shards, and the one a lone cache can ever use at 1;
//   - the write buffers are each in-memory SG's chunks, set heads and
//     presence words plus the idle chunks on the shared list, each SG's log
//     is within 2 × live + 3 chunks and the list keeps at most one SG's
//     bytes (writeBuffers);
//   - each index-layer term is its arithmetic (indexLedger);
//   - the ledger adds up: its total is within 6% of the HeapAlloc growth
//     since before NewSharded (the simulated device's zone memory, which
//     the engine does not own, taken out). What it leaves out is small and
//     per shard: the pool and group slices, the latency histogram, the
//     breaker.
//
// The paper-metadata part departs from the Readout's Model × resident objects,
// and the departure is what is asserted. Below the model: it charges a whole
// device page per group-buffer page, spread over the objects the pool holds
// but charged to every resident object, the write buffers' too, where the
// buffer holds SGsPerIndexGroup filters of the group's width; and Bloom bits
// for the cached share of the pool whether or not a read has fetched them
// (this run reads nothing, so the PBFG cache holds no page). Above it: each
// SG's meta keeps prefix sums beside the hotness bits, for every SG and not
// the tracked tail only, and each SG has a struct the model does not count.
// So: measured is no more than the model plus the DataZones +
// SGsPerIndexGroup SG structs a shard can hold, and no less than the model
// with its Bloom and buffer terms replaced by the group buffers measured.
func TestResidentBytesLedger(t *testing.T) {
	const (
		totalData = 48
		flushers  = 2
		objsPerSG = 64 * 40 // 40 objects a set, §5.1's sizing
	)
	var kitBytes uint64
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := heapAlloc(nil)
			dev, s := kitGeom(t, shards, totalData, flushers)
			for i := 0; i < 2*totalData*objsPerSG; i++ {
				if err := s.SetAsync(kitKey(i), kitValue(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			if shards > 1 {
				saturateKits(t, dev, s)
			}
			heap := heapAlloc(dev) - base
			r := s.Readout()
			t.Logf("heap %d KiB; ledger %d KiB = meta %d (pbfg cache %d + group buffers %d + sg meta %d) + buffers %d + kits %d; model meta %d KiB for %d objects",
				heap>>10, r.Total()>>10, r.PaperMeta()>>10, r.PBFGCache>>10, r.GroupBuffers>>10, r.SGMeta>>10,
				r.WriteBuffers>>10, r.FlushKits>>10, r.ModelMeta>>10, r.Objects)

			c := s.Shard(0)
			kit := c.newFlushKit().bytes()
			wantKits := flushers
			if shards == 1 {
				wantKits = 1
			}
			// An idle kit is a new one but for its spare's two chunk lists,
			// which keep the capacity the SG's last life grew them to.
			s.kits.mu.Lock()
			idle, lists := len(s.kits.idle), 0
			for _, k := range s.kits.idle {
				lists += int(unsafe.Sizeof([]byte(nil))) * (cap(k.spare.chunks) + cap(k.spare.swap))
			}
			s.kits.mu.Unlock()
			if idle != wantKits || r.FlushKits != uint64(wantKits)*kit+uint64(lists) {
				t.Errorf("%d idle kits hold %d bytes, want %d kits of %d and %d bytes of chunk lists", idle, r.FlushKits, wantKits, kit, lists)
			}
			if kitBytes == 0 {
				kitBytes = kit
			} else if kit != kitBytes {
				t.Errorf("a kit is %d bytes at %d shards and %d at 1", kit, shards, kitBytes)
			}
			if want := writeBuffers(t, s); r.WriteBuffers != want {
				t.Errorf("write buffers hold %d bytes, want the SGs' chunks, heads and presence words and the idle chunks, %d", r.WriteBuffers, want)
			}
			if want := indexLedger(t, s); r.PBFGCache != want.PBFGCache || r.GroupBuffers != want.GroupBuffers || r.SGMeta != want.SGMeta {
				t.Errorf("index ledger pbfg cache %d, group buffers %d, sg meta %d; want %d, %d, %d",
					r.PBFGCache, r.GroupBuffers, r.SGMeta, want.PBFGCache, want.GroupBuffers, want.SGMeta)
			}
			// Race instrumentation allocates; the non-race lanes compare.
			if lo, hi := float64(heap)*0.94, float64(heap)*1.06; !raceDetectorEnabled && (float64(r.Total()) < lo || float64(r.Total()) > hi) {
				t.Errorf("ledger total %d is not within 6%% of the measured heap %d", r.Total(), heap)
			}
			m := c.Readout().Model
			floor := float64(r.ModelMeta)*(1-(m.BloomBitsPerObj+m.BufferBitsPerObj)/m.TotalBitsPerObj) + float64(r.GroupBuffers)
			structs := uint64(shards*(c.cfg.DataZones+c.cfg.SGsPerIndexGroup)) * uint64(unsafe.Sizeof(flashSG{}))
			if paper := r.PaperMeta(); r.Objects == 0 || float64(paper) < floor || paper > r.ModelMeta+structs {
				t.Errorf("paper metadata %d bytes for %d objects, model %d: not within [model with its Bloom and buffer terms replaced by the group buffers (%.0f), model + the SG structs the shards can hold (%d)]",
					paper, r.Objects, r.ModelMeta, floor, structs)
			}
		})
	}
}

// writeBuffers recomputes the write-buffer term of s's ledger from what
// each in-memory SG holds — its chunks, a 12-byte head and 512 presence
// bits per set, and a slice header per slot of its two chunk lists — plus
// the chunks idle on the shared list, and checks the two bounds the
// chunked log keeps: each SG's chunks within 2 × live + 3 chunks, the list
// within one SG's bytes.
func writeBuffers(t *testing.T, s *Sharded) uint64 {
	t.Helper()
	var n uint64
	for i, c := range s.shards {
		c.mu.Lock()
		for j, sg := range c.memq {
			log := len(sg.chunks) * sg.chunkSize
			if log > 2*sg.live+3*sg.chunkSize {
				t.Errorf("shard %d SG %d: %d log bytes for %d live, over 2 × live + 3 chunks of %d", i, j, log, sg.live, sg.chunkSize)
			}
			n += uint64(log + c.setsPerSG*(12+64) + 24*(cap(sg.chunks)+cap(sg.swap)))
		}
		c.mu.Unlock()
	}
	s.kits.mu.Lock()
	defer s.kits.mu.Unlock()
	c := s.shards[0]
	sgBytes := c.setsPerSG * c.pageSize
	idle := 0
	for _, ch := range s.kits.chunks {
		idle += len(ch)
	}
	if idle > sgBytes {
		t.Errorf("%d idle chunk bytes, the list keeps one SG's %d", idle, sgBytes)
	}
	return n + uint64(idle)
}

// indexLedger recomputes the index-layer terms of s's ledger from what each
// shard holds: PBFG cache slots of each width's page bytes plus its queue, a
// SetsPerSG slot list per sealed group and one device page of fetch scratch;
// setsPerSG PBFG pages of its width per unsealed group;
// for every group member, its struct and a meta of nsets+1 prefix sums and
// 2·⌈objCount/64⌉ hot words at its size-class capacity.
func indexLedger(t *testing.T, s *Sharded) (r Resident) {
	t.Helper()
	for _, c := range s.shards {
		c.mu.Lock()
		ic := c.icache
		for w, a := range ic.arenas {
			page := (w + 1) * 8 * c.cfg.SGsPerIndexGroup // a page of 64·(w+1)-bit filters
			for i, slab := range a.slabs {
				if len(slab) != pageSlabPages*page {
					t.Errorf("%d-bit page slab %d is %d bytes, want %d slots of %d", 64*(w+1), i, len(slab), pageSlabPages, page)
				}
			}
			r.PBFGCache += uint64(len(a.slabs) * pageSlabPages * page)
		}
		r.PBFGCache += uint64(c.pageSize + 8*cap(ic.queue))
		for _, g := range c.groups {
			if g.sealed {
				r.PBFGCache += uint64(4 * c.setsPerSG)
			} else if len(g.members) > 0 {
				r.GroupBuffers += uint64(c.setsPerSG * g.bfBits / 8 * c.cfg.SGsPerIndexGroup)
			}
			for _, m := range g.members {
				if want := c.setsPerSG + 1 + 2*((m.objCount+63)/64); len(m.meta) != want || cap(m.meta) < want {
					t.Errorf("SG %d meta is %d words (cap %d), want %d", m.id, len(m.meta), cap(m.meta), want)
				}
				r.SGMeta += uint64(unsafe.Sizeof(flashSG{})) + uint64(4*cap(m.meta))
			}
		}
		c.mu.Unlock()
	}
	return r
}

// TestFlushKitNeverInTwoFlushes runs 8 shards flushing from 2 flusher
// goroutines and from inline synchronous Sets on 4 goroutines while one
// shard's flush is parked mid-build. Every append of every other flush
// checks — under the sibling's lock, where kit is set and cleared — that no
// other shard holds the appending flush's kit. The parked shard holds
// nothing up: every other shard commits flushes before it is released. After
// release every key still cached returns the bytes written for it.
func TestFlushKitNeverInTwoFlushes(t *testing.T) {
	const shards, victim = 8, 3
	dev, s := kitGeom(t, shards, 64, 2)
	var appends atomic.Int64
	parked, release := parkOneFlush(dev, s, victim, func(i int) error {
		appends.Add(1)
		// The hook runs on shard i's flush owner, which set its own kit.
		mine := s.shards[i].kit
		if mine == nil || mine.spare != nil {
			return fmt.Errorf("shard %d appends with kit %p between seal and commit", i, mine)
		}
		for j, o := range s.shards {
			if j == i {
				continue
			}
			o.mu.Lock()
			shared := o.kit == mine
			o.mu.Unlock()
			if shared {
				return fmt.Errorf("shards %d and %d flush with one kit", i, j)
			}
		}
		return nil
	})

	// The victim's own Set triggers the flush that parks, inside the call.
	victimDone := make(chan error, 1)
	go func() {
		for i := 1 << 24; ; i++ {
			k := kitKey(i)
			if s.ShardOf(k) != victim {
				continue
			}
			if err := s.Set(k, kitValue(i)); err != nil {
				victimDone <- err
				return
			}
			select {
			case <-parked:
				victimDone <- nil
				return
			default:
			}
		}
	}()
	<-parked
	flushed := make([]uint64, shards)
	for i, c := range s.shards {
		flushed[i] = c.Readout().SGsFlushed
	}

	const writers, perWriter = 4, 30_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * perWriter; i < (w+1)*perWriter; i++ {
				// A write routed to the parked shard would wait on its
				// flush; the other seven take all of them.
				if s.ShardOf(kitKey(i)) == victim {
					continue
				}
				set := s.SetAsync
				if i%2 == 0 {
					set = s.Set
				}
				if err := set(kitKey(i), kitValue(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, c := range s.shards {
		if n := c.Readout().SGsFlushed; i != victim && n == flushed[i] {
			t.Errorf("shard %d committed no flush while shard %d was parked", i, victim)
		}
	}
	release()
	if err := <-victimDone; err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	dev.SetWriteFault(nil)
	if appends.Load() == 0 {
		t.Fatal("the write hook saw no append")
	}
	if st := s.Stats(); st.WriteErrors != 0 {
		t.Fatalf("%d flushes failed the kit check", st.WriteErrors)
	}
	if n := len(s.kits.idle); n < 1 || n > s.kits.keep {
		t.Errorf("%d idle kits after the run, want 1..%d", n, s.kits.keep)
	}
	for _, k := range s.kits.idle {
		if k.spare == nil {
			t.Error("an idle kit has no spare SG")
		}
	}
	hits := 0
	for i := 0; i < writers*perWriter; i++ {
		if v, hit := s.Get(kitKey(i)); hit {
			hits++
			if string(v) != string(kitValue(i)) {
				t.Fatalf("key %d returns %q", i, v)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no key survived")
	}
}

// TestFlushKitReturnsAfterFailedFlush fails a flush mid-build: recovery
// hands the dropped front back as the kit's spare, so the kit returns to the
// list whole and the next flush — on the other shard — runs on it.
func TestFlushKitReturnsAfterFailedFlush(t *testing.T) {
	dev, s := kitGeom(t, 2, 16, 0)
	fill := func(c *Cache, base int) {
		for i := base; c.MemObjects() < 200; i++ {
			if k := kitKey(i); s.Shard(s.ShardOf(k)) == c {
				if err := c.Set(k, kitValue(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	fill(s.Shard(0), 0)
	boom := errors.New("injected append failure")
	dev.SetWriteFault(func(int) error { return boom })
	if err := s.Shard(0).Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush error = %v, want the injected one", err)
	}
	dev.SetWriteFault(nil)
	if len(s.kits.idle) != 1 || s.kits.idle[0].spare == nil {
		t.Fatalf("after a failed flush the list holds %d kits (spare present: %v), want one whole kit",
			len(s.kits.idle), len(s.kits.idle) == 1 && s.kits.idle[0].spare != nil)
	}
	kit := s.kits.idle[0]
	fill(s.Shard(1), 1<<20)
	var used *flushKit
	dev.SetWriteFault(func(int) error { used = s.Shard(1).kit; return nil })
	if err := s.Shard(1).Flush(); err != nil {
		t.Fatal(err)
	}
	dev.SetWriteFault(nil)
	if used != kit {
		t.Error("the other shard's flush built a kit instead of taking the returned one")
	}
	if got := s.Readout().FlushKits; got != kit.bytes() {
		t.Errorf("ledger counts %d kit bytes, want the one kit's %d", got, kit.bytes())
	}
}

// TestFlushKitHeapFlatOverChurn is TestArenaFlatOverChurn's flat-heap
// property with kits in the picture: four goroutines keep eight shards
// flushing inline, more flushes in flight than the list keeps, so kits are
// built and dropped all the time — and the live heap after a collection,
// less the write buffers the ledger counts (which follow how full each
// shard's in-memory SGs happen to be when the round ends, and are checked
// against their own bounds by writeBuffers), does not grow from one round
// to the next by more than one kit.
func TestFlushKitHeapFlatOverChurn(t *testing.T) {
	dev, s := kitGeom(t, 8, 32, 0)
	round := func(r int) uint64 {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20_000; i++ {
					n := (r*4+w)*20_000 + i
					if err := s.Set(kitKey(n), kitValue(n)); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		heap := heapAlloc(dev)
		wb := s.Readout().WriteBuffers
		if held := writeBuffers(t, s); wb != held {
			t.Errorf("round %d: ledger counts %d write-buffer bytes, the SGs and the list hold %d", r, wb, held)
		}
		return heap - wb
	}
	round(0) // fill the pool; eviction and the arenas reach steady state
	before := round(1)
	var after uint64
	for r := 2; r < 6; r++ {
		after = round(r)
	}
	kit := s.Shard(0).newFlushKit().bytes()
	if after > before+kit {
		t.Errorf("live heap less the write buffers grew from %d to %d bytes over four rounds of kit churn, more than one kit (%d)", before, after, kit)
	}
	if n := len(s.kits.idle); n > s.kits.keep {
		t.Errorf("%d idle kits, the list keeps %d", n, s.kits.keep)
	}
}
