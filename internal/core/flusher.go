package core

import "sync"

// flusherPool executes deferred SG flushes on K background goroutines — the
// pipeline behind cachelib.Engine's SetAsync. SetAsync inserts into the in-memory
// SG and returns; when a flush trigger fires, the cache is enqueued here and
// a flusher goroutine runs the three-phase flush protocol (writepath.go):
// the shard lock is held only for the seal, liveness-filter, and commit
// sub-phases, while the serialization, device appends, Bloom-filter build,
// group sealing, and eviction read-back all run unlocked — so a deferred
// flush no longer stalls the shard's foreground GETs and SETs, and with a
// Sharded cache (which shares one pool across all shards) the K flushers
// overlap every shard's flush I/O with every shard's foreground traffic.
// Each flush's seal advances the shard's SG epoch, which in-flight
// optimistic readers detect at commit time and retry (readpath.go) — the
// pool needs no extra coordination with the concurrent read path.
//
// Each cache holds at most one outstanding job (Cache.flushPending), and the
// job channel is sized for one slot per registered cache, so enqueue — which
// runs with the shard lock held — can never block on pool backpressure.
type flusherPool struct {
	jobs chan *Cache
	wg   sync.WaitGroup // running workers

	mu      sync.Mutex
	cond    *sync.Cond
	pending int   // enqueued or executing jobs
	err     error // first deferred flush error
	stopped bool
}

// newFlusherPool starts k flusher goroutines servicing up to caches queued
// jobs (one slot per cache that may enqueue).
func newFlusherPool(k, caches int) *flusherPool {
	if k < 1 {
		k = 1
	}
	if caches < 1 {
		caches = 1
	}
	p := &flusherPool{jobs: make(chan *Cache, caches)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(k)
	for i := 0; i < k; i++ {
		go p.worker()
	}
	return p
}

func (p *flusherPool) worker() {
	defer p.wg.Done()
	for c := range p.jobs {
		p.finish(c.runDeferredFlush())
	}
}

// enqueue submits one flush job for c, reporting false when the pool has
// been stopped (the caller then flushes inline). The caller holds c.mu; the
// send cannot block (see the channel-sizing invariant) and happens under
// p.mu so it can never race stop's close of the channel.
func (p *flusherPool) enqueue(c *Cache) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return false
	}
	p.pending++
	p.jobs <- c
	return true
}

// finish retires one job, recording its error and waking drainers.
func (p *flusherPool) finish(err error) {
	p.mu.Lock()
	p.pending--
	if err != nil && p.err == nil {
		p.err = err
	}
	if p.pending == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// drain blocks until no jobs are enqueued or executing, then returns the
// first deferred error. Callers must not hold any cache lock.
func (p *flusherPool) drain() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pending > 0 {
		p.cond.Wait()
	}
	return p.err
}

// stop refuses new jobs, drains the queue, and terminates the workers;
// idempotent. Marking stopped before draining means a SetAsync racing with
// Close falls back to an inline flush instead of touching a closing pool.
func (p *flusherPool) stop() error {
	p.mu.Lock()
	already := p.stopped
	p.stopped = true
	p.mu.Unlock()
	err := p.drain()
	if !already {
		close(p.jobs)
		p.wg.Wait()
	}
	return err
}
