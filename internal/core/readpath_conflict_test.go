package core

// Deterministic tests for the two corners of the read protocol that traffic
// only reaches by chance: the epoch conflict (readpath.go's one conflict
// policy) and the shared-fetch failure of a batch (getBatch's accounting
// contract). Both steer the device from its fault hooks.

import (
	"fmt"
	"sync"
	"testing"

	"nemo/internal/device"
	"nemo/internal/devtest"
	"nemo/internal/hashing"
)

// coldPBFGPages returns how many sealed live groups have no cached PBFG page
// for key's set offset: the number of index fetches a lookup of key plans.
func coldPBFGPages(c *Cache, key []byte) int {
	o := c.setOf(hashing.Fingerprint(key))
	cold := 0
	for _, g := range sealedLiveGroups(c) {
		if g.cached[o] < 0 {
			cold++
		}
	}
	return cold
}

// sealedLiveGroups returns the sealed index groups a lookup consults.
func sealedLiveGroups(c *Cache) []*idxGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sealed []*idxGroup
	for _, g := range c.groups {
		if g.sealed && g.liveCount > 0 {
			sealed = append(sealed, g)
		}
	}
	return sealed
}

// flashResident replays the (deterministic) readPathConfig fill on a twin
// cache — so the cache under test keeps its index cache and hotness bits
// untouched — until wantSealed index groups have sealed, and returns the
// fill length and which of its first half hit from flash: each key is set
// once, so an early insert that still hits is on flash.
func flashResident(t *testing.T, wantSealed int) (n int, resident map[string]bool) {
	t.Helper()
	_, twin := readPathConfig(t, 1.0)
	for len(sealedLiveGroups(twin)) < wantSealed {
		if err := twin.Set(rpKey(n), rpValue(n)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	resident = make(map[string]bool)
	for i := 0; i < n/2; i++ {
		if _, hit := twin.Get(rpKey(i)); hit {
			resident[string(rpKey(i))] = true
		}
	}
	return n, resident
}

// readParker steers a device's read hook through one conflict scenario: the
// first data-zone (candidate set page) read parks until release, every other
// read passes, and every read is logged with the phase it arrived in.
type readParker struct {
	indexFrom int // first index zone of the cache under test
	dev       device.Device

	mu       sync.Mutex
	phase    int           // 0 armed, 1 parked, 2 released
	reads    [3][]int      // page addresses read, by phase
	parked   chan struct{} // closed when the candidate read parks
	released chan struct{}
}

func parkFirstCandidateRead(dev device.Device, c *Cache) *readParker {
	p := &readParker{
		indexFrom: c.zoneBase + c.cfg.DataZones,
		dev:       dev,
		parked:    make(chan struct{}),
		released:  make(chan struct{}),
	}
	dev.SetReadFault(func(page int) error {
		p.mu.Lock()
		p.reads[p.phase] = append(p.reads[p.phase], page)
		park := p.phase == 0 && dev.ZoneOf(page) < p.indexFrom
		if park {
			p.phase = 1
		}
		p.mu.Unlock()
		if park {
			close(p.parked)
			<-p.released
		}
		return nil
	})
	return p
}

func (p *readParker) release() {
	p.mu.Lock()
	p.phase = 2
	p.mu.Unlock()
	close(p.released)
}

// check asserts what the conflict policy promises about device traffic once
// the lookup has returned: every read of the window is in FlashReadOps (the
// aborted pass included), and each PBFG page the aborted pass fetched before
// it parked was fetched again by the redo — had the abort published it to the
// index cache, the redo would have found it there.
func (p *readParker) check(t *testing.T, c *Cache, before uint64) {
	t.Helper()
	p.dev.SetReadFault(nil)
	p.mu.Lock()
	defer p.mu.Unlock()
	total := len(p.reads[0]) + len(p.reads[1]) + len(p.reads[2])
	if got := c.Stats().FlashReadOps - before; got != uint64(total) {
		t.Errorf("FlashReadOps rose by %d over a window of %d device reads (%d before the park): aborted reads unaccounted",
			got, total, len(p.reads[0]))
	}
	fetched := 0
	for _, page := range p.reads[0] {
		if p.dev.ZoneOf(page) < p.indexFrom {
			continue
		}
		fetched++
		again := false
		for _, later := range p.reads[2] {
			again = again || later == page
		}
		if !again {
			t.Errorf("PBFG page %d fetched by the aborted pass was not fetched by the redo: the abort published it", page)
		}
	}
	if fetched == 0 {
		t.Fatal("the aborted pass fetched no PBFG page: the scenario lost its index-cache miss")
	}
}

// TestEpochConflictRedo reaches the conflict branch on purpose, where
// TestGetEpochConflictFallsBack hammers and hopes: a lookup's candidate-page
// read is parked in the device, a second goroutine flushes the front SG so
// the epoch moves, and the read is released into a commit phase that must
// abort and redo under the held lock. For Get and for a three-key GetMany:
// the call returns, a hit carries exactly the written bytes, and the device
// traffic is what readParker.check describes.
func TestEpochConflictRedo(t *testing.T) {
	fill, resident := flashResident(t, 2)
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		for _, nkeys := range []int{1, 3} {
			t.Run(fmt.Sprintf("keys=%d", nkeys), func(t *testing.T) {
				dev, c := readPathConfigOn(t, b, 0.25)
				keys := fillReadPath(t, c, fill)
				var want [][]byte
				var ids []int
				for i, k := range keys {
					if resident[string(k)] && len(want) < nkeys {
						want, ids = append(want, k), append(ids, i)
					}
				}
				if len(want) < nkeys {
					t.Fatalf("fill left %d flash keys, want %d", len(want), nkeys)
				}
				if coldPBFGPages(c, want[0]) == 0 {
					t.Fatal("the first key plans no PBFG fetch")
				}

				before := c.Stats().FlashReadOps
				p := parkFirstCandidateRead(dev, c)
				type reply struct {
					vals [][]byte
					hits []bool
				}
				done := make(chan reply, 1)
				go func() {
					if nkeys == 1 {
						v, hit := c.Get(want[0])
						done <- reply{[][]byte{v}, []bool{hit}}
						return
					}
					vals, hits := c.GetMany(want)
					done <- reply{vals, hits}
				}()
				select {
				case <-p.parked:
				case <-done:
					t.Fatal("lookup returned without a candidate-page read")
				}
				// The parked reader holds no lock; the flush moves the epoch.
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				p.release()
				r := <-done // a deadlocked redo fails here by the test timeout

				for j := range want {
					// The flush evicted nothing, so the redo must find every key.
					if !r.hits[j] || string(r.vals[j]) != string(rpValue(ids[j])) {
						t.Errorf("key %q after the conflict: (%q, %v), want the written value", want[j], r.vals[j], r.hits[j])
					}
				}
				p.check(t, c, before)
			})
		}
	})
}

// TestGetManySharedFetchFailureContract pins getBatch's documented accounting
// under a failed shared fetch: k keys of one batch share one uncached PBFG
// page whose read fails. All k miss and count a read error, the index cache
// is charged k lookups but one miss, and the device sees one attempt (serial
// Gets would have made k); nothing of the failure is cached, so once the
// device heals the next batch fetches the page and hits.
func TestGetManySharedFetchFailureContract(t *testing.T) {
	const k = 3
	fill, resident := flashResident(t, 1)
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		dev, c := readPathConfigOn(t, b, 1.0)
		keys := fillReadPath(t, c, fill)

		// One sealed group, so every key plans exactly one index-cache lookup.
		sealed := sealedLiveGroups(c)
		if len(sealed) != 1 {
			t.Fatalf("fill sealed %d index groups, want 1", len(sealed))
		}
		g := sealed[0]
		// k flash-resident keys of one set offset share that group's page.
		byOffset := make(map[int][][]byte)
		var sharers [][]byte
		var o int
		for _, key := range keys {
			if !resident[string(key)] {
				continue
			}
			o = c.setOf(hashing.Fingerprint(key))
			if byOffset[o] = append(byOffset[o], key); len(byOffset[o]) == k {
				sharers = byOffset[o]
				break
			}
		}
		if sharers == nil || g.cached[o] >= 0 {
			t.Fatal("no k flash keys share an uncached PBFG page")
		}
		pageAddr := c.dev.PageAddr(g.zone, o)

		var attempts int
		failing := true
		dev.SetReadFault(func(page int) error {
			if page != pageAddr {
				return nil
			}
			attempts++
			if failing {
				return fmt.Errorf("injected ECC error")
			}
			return nil
		})
		defer dev.SetReadFault(nil)

		r0 := c.Readout()
		_, hits := c.GetMany(sharers)
		for j, hit := range hits {
			if hit {
				t.Errorf("key %q hit although its PBFG page could not be read", sharers[j])
			}
		}
		r1 := c.Readout()
		if got := r1.ReadErrors - r0.ReadErrors; got != k {
			t.Errorf("ReadErrors rose by %d, want %d (one per sharer)", got, k)
		}
		if l, m := r1.PBFGLookups-r0.PBFGLookups, r1.PBFGMisses-r0.PBFGMisses; l != k || m != 1 {
			t.Errorf("index cache charged %d lookups / %d misses, want %d / 1", l, m, k)
		}
		if attempts != 1 {
			t.Errorf("failing page attempted %d times, want once for the whole batch", attempts)
		}

		failing = false
		vals, hits := c.GetMany(sharers)
		for j := range sharers {
			if !hits[j] || len(vals[j]) == 0 {
				t.Errorf("key %q still misses after the device healed", sharers[j])
			}
		}
		if attempts != 2 {
			t.Errorf("page attempted %d times in all, want 2 (the failure was not cached)", attempts)
		}
		if g.cached[o] < 0 {
			t.Error("healed fetch was not published to the index cache")
		}
	})
}
