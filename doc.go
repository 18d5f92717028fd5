// Package nemo is a from-scratch Go reproduction of "Nemo: A
// Low-Write-Amplification Cache for Tiny Objects on Log-Structured Flash
// Devices" (ASPLOS '26), grown into a production-shaped cache service core.
//
// Nemo is a flash cache for tiny (~250 B) objects that reaches near-ideal
// write amplification by rearchitecting set-associative caching around
// Set-Groups: many 4 KB sets hashed over a small range, aggregated in
// memory, flushed as whole erase units, and evicted FIFO. An on-flash Bloom
// filter index (PBFG) keeps memory at ~8 bits per object, and hybrid 1-bit
// hotness tracking feeds writeback so hot objects survive eviction.
//
// # The engine contract
//
// Every cache design in the repository — Nemo, the four baselines, and each
// of them behind a sharded facade — implements one interface, Engine
// (internal/cachelib): Name, Get, Set, Delete, GetMany, SetMany, SetAsync,
// Drain, Stats, Fields, Close. It is the neutral harness surface the
// paper's comparisons need, and the server, the replayers and ShardedEngine
// are written against it with no adapter in between. Read latency is not
// part of it: each engine records its own histogram (a Nemo shard's is
// Shard(i).ReadLatency) and no facade merges them.
//
//   - GetMany. A Nemo shard reads a batch with one plan and one commit
//     under its lock; ShardedEngine — and ShardedCache, which embeds it —
//     hashes each key once to route it, hands a batch that lands on one
//     shard to that shard whole, and splits one that spans shards into
//     per-shard sub-batches fanned out in parallel: the multi-get pattern
//     of a cache service front end. A Nemo shard fingerprints its
//     sub-batch again to place and probe each key. The baselines have
//     nothing to batch and loop over their own Get.
//   - SetMany. The batch's Sets in order, stopping at the first error, on
//     every engine and facade alike: one loop over the engine's own Set.
//   - SetAsync/Drain. Nemo inserts into the in-memory SG and returns; when
//     the rear-full trigger fires, the full SG's flush is handed to a
//     background flusher pool (Config.Flushers goroutines, shared across
//     shards) instead of running inline on the inserting worker. The flush
//     is the p99 outlier of the Set path: benchmark/ reports it on the
//     flusher as write_churn · set_p99_us and inline on the caller as
//     lib_direct · core.set_p99_us. Drain awaits all deferred work; a
//     sacrifice budget backpressures to inline flushing if the pool ever
//     lags. The baselines have nothing to defer: their SetAsync is Set and
//     their Drain returns nil.
//   - Delete. Nemo has no exact per-object index (§4.3), so deletion
//     tombstones: in-memory copies are removed and a zero-length marker
//     shadows any still-cached flash copy (reads scan newest-first) until
//     it ages out of the FIFO pool; hotness writeback never resurrects a
//     tombstoned object. Log removes the entry from its exact index. Set,
//     KG and FW keep a delete shadow: a DRAM set of deleted keys, under the
//     engine's mutex, consulted before the engine proper. A shadowed Get is
//     a miss that counts in Stats.Gets but reads no flash and records no
//     latency sample; the next successful Set of the key lifts the shadow.
//     It is a modelling device, not part of those designs — the comparison
//     charges a baseline nothing for a DELETE — so it costs them no flash
//     write and is not counted in MemoryBitsPerObject.
//
// The loops and the shadow are written once (cachelib.PerKey,
// cachelib.DeleteShadow), and internal/enginetest's Conformance table holds
// every engine, bare and two-sharded, to these rules. A request's op kind
// (RequestKind: KindGet, KindSet, KindDelete) rides on the trace —
// NewMixedStream generates mixed workloads.
//
// # Baselines
//
// The paper defines its baselines by composition, and so does the code. Set
// (internal/setcache) is a set tier — FTL-backed set pages plus per-set
// Bloom filters — behind a mutex; Kangaroo is a log front (internal/hlog)
// feeding that same tier, so migration and device GC multiply; FairyWREN is
// the same front over its own host-mapped tier with GC folded into
// migration; Log is that front with nothing behind it, its per-set lists
// keyed by fingerprint serving as the exact index, and a full log evicting
// its oldest zone where the others migrate it. Each engine owns one mutex,
// Stats and latency histogram; tier and front are lock-free and account
// into them, and each engine's zero-value Config is the paper's Table 4.
// `nemobench exp fig12a` reports the five designs' steady-state write
// amplification (internal/experiments/fidelity_test.go holds each figure
// to the paper's values and states where this reproduction departs);
// `nemobench compare` replays one mixed trace through all five behind the
// same sharded facade (hit ratio, ALWA, total WA, read and write errors per
// engine × shard count — quality only, equal cell for cell on every run
// and device backend).
//
// # The concurrent read and write paths
//
// Neither holds the shard lock across flash I/O. A GET is a locked plan,
// unlocked device reads, and a locked commit that re-validates the SG epoch,
// redone once under the lock if a flush moved the layout: readpath.go's
// header (internal/core). A hit allocates once (the value copy), a clean miss
// never; speed is lib_direct · throughput_ops_s and cpu_us_per_op.
//
// An SG flush is a locked seal, an unlocked build and write, and a locked
// commit, one in flight per shard, its objects served from the sealed slot
// meanwhile; a device error drops the sealed SG, returns its zone and lands
// in Stats.WriteErrors: writepath.go's header. Speed is write_churn ·
// throughput_ops_s, set_p99_us and alwa.
//
// # Memory layout
//
// At the ROADMAP's production scale the Go GC is a metadata tax: hundreds
// of millions of resident fingerprints mean the collector re-scans every
// pointer the index holds, on every cycle. The steady-state in-memory
// layer is therefore arena-backed — a fixed set of large, pointer-free
// allocations the GC traverses in a handful of steps, regardless of how
// many objects the cache holds:
//
//   - The PBFG index cache is addressed through the index groups: each
//     sealed group keeps one slot number per set offset (-1 = not cached),
//     so a lookup is one load, and the slot names a carve of a large []byte
//     slab, the M filters a PBFG page carries at the group's filter width,
//     not the device page around them. There is one slab arena per width in
//     use; an arena gives its last slab back once two slabs of its slots
//     are free, moving the pages left in it down, so a width going out of
//     use does not pin its high-water mark. The FIFO queue is pointer-free
//     (group id, set) pairs that resolve through the dense, id-ordered
//     group list, and a retiring group takes its pages and its queue
//     entries with it. There are no per-page allocations and no map[...]...
//     anywhere on the hot path.
//   - Each SG is one flashSG struct naming its one zone, made at seal (or
//     snapshot restore); a shard holds at most DataZones + SGsPerIndexGroup
//     of them. Its per-set prefix-sum bases (a set's count is the
//     difference of two) and its hotness bits pack into one exact-size
//     []uint32 made at flush commit (or restore) — which is also when the
//     prefix sums are computed, once, instead of lazily on every probe —
//     and dropped when the SG's group retires, even where pooled read
//     scratch still points at the struct: one pointer-free object per SG
//     held, none per request.
//   - An in-memory SG holds the bytes its entries take, not a page per
//     set: its sets are FIFO chains of records through an append-only log
//     of four-page chunks (16 KiB), with a 12-byte head and 512 presence
//     bits a set (memsg.go). Removed and sacrificed records stay dead in
//     the log until they outweigh the live ones and two chunks, when the
//     log is compacted, so it holds at most 2 × live + 3 chunks. Chunks
//     come from a list all shards share, which keeps one SG's bytes idle
//     and drops the rest; a flush's commit returns the flushed front's
//     chunks to it. A flush victim's read-back pages are carves of the
//     flush kit's window. A kit is what only a running flush needs — the
//     empty rear its seal rotates in (heads and presence words), the 128
//     KiB window every device call of the flush moves its pages through
//     (set pages, PBFG pages, victim read-back: one Append or ReadPages a
//     window), and filter scratch — taken from a free list all shards
//     share and returned with the flushed, emptied SG as its spare
//     (writepath.go). An unsealed group's PBFG pages are one buffer, made
//     when its first member commits and dropped whole when the group seals.
//
// Resident memory is index(objects) + the in-memory SGs' chunks (what
// their entries take, within 2 × live + 3 chunks each) + Shards × MemSGs ×
// SetsPerSG × 76 bytes of set heads and presence words + idle chunks (at
// most one SG's bytes, whatever the shard count) + min(flushes in flight,
// max(1, Flushers)) × kit, with kit = window + filter scratch + an empty
// SG's heads (0.17 MiB at 1 MiB zones); Readout.Resident sums it, split
// into write buffers, kits and the index part beside what Readout.Model
// charges the same objects, with the index part split again by the layer
// that holds it (PBFG cache, group buffers, SG meta), and the stats verb
// prints it (resident_* rows). Sharing kits across shards took write_churn
// · engine_heap_mib from 28.9 to 24.8 MiB at 4 shards and 2 flushers, the
// window in place of a whole-SG read-back slab took the same row to 23.1
// MiB, index metadata at its real size — PBFG slots of the filters' bytes,
// SG meta without its count region or slab arena — took it to 16.9, and
// chunked in-memory SGs in place of a page a set took it to 11.2 MiB
// (10/10 pairs; get_fits 14.6 → 7.6, lib_direct 15.6 → 8.3). CHANGES.md
// has the pairs, and the traced core.heap_bits_per_obj beside an unmoved
// core.resident_objs.
//
// PBFG pages. A PBFG page holds the set-level Bloom filters of one intra-SG
// offset across the M SGs of an index group (Config.SGsPerIndexGroup, 50).
// There is one layout, on flash, in the index cache and in the unsealed
// group's buffer alike, and it is bit-sliced: row r of the page — one row per
// filter bit — holds bit r of every member's filter, member s's at page bit
// r·M+s, so the page is exactly M filters long. A bit-sliced page needs one
// width for all its columns, so the width is the group's, fixed when its
// first member's set pages are built (after writeback, so survivors count):
// bloom.SizeBits of that SG's fullest set at Config.BloomFPR, a multiple of
// 64 bits, capped at the widest filter M columns of fit one device page
// (640 bits at 4 KiB and M = 50). The index group records it, and so does
// the checkpoint. §5.1 sized every filter for 40 objects (576 bits); the
// benchmark's sets hold about 16, and its groups take 256 or 320 bits. A
// lookup computes its k = 10 probe hashes once — enhanced double hashing,
// independent of the width — each group maps them onto its own width by a
// multiply-high, and the group test ANDs the k rows they name (one
// unaligned 8-byte load, shift and mask each, which is why M is capped at
// 57: bloom.MaxGroupMembers); the surviving
// bits, masked by the group's live-member word, are the candidate SGs,
// visited newest first. A dead member or a slot no flush has published is
// simply absent from the live word, and an empty set's filter is all zeros,
// so neither needs a test of its own. All three group walks — the read
// plan, Delete's "may a flash copy exist" and writeback's "is a newer copy
// shadowing this one" — are one iterator over that mask (index.go
// walkCandidates). The member being flushed has its filters built outside
// the group buffer, in the flush owner's kit, while readers keep testing
// the buffer under the lock; the commit ORs them in as a column, under the
// lock, and that merge is the only locked work the layout added. The kernel
// is checked against the per-member loop it replaced (kept in the tests as
// the oracle) over random geometries, fill levels, dead members and an
// in-flight slot, on built, sealed and snapshot-restored pages; CHANGES.md
// (PR 16) has what it bought on lib_direct · throughput_ops_s.
//
// The ownership rule that makes immediate recycling safe under the
// optimistic read protocol: page-arena memory is only ever dereferenced
// while holding the shard lock. A read's plan phase Bloom-tests the filters
// where they lie and keeps only the outcome — the candidate SGs and their
// precomputed page addresses; the unlocked I/O phase touches only that
// list, the PBFG pages it fetched itself and its own pooled buffers, and
// the commit phase re-validates the SG epoch before touching any SG — an
// epoch match proves no flush or eviction recycled anything the plan
// referenced. Freed slots therefore go
// straight back to their free lists, with no deferred reclamation, and the
// arena leak test pins slot accounting plus process HeapObjects flat over
// fill→evict→refill churn (TestArenaFlatOverChurn). Every benchmark/
// workload reports the result — engine_heap_mib end to end, and
// runtime.heap_objects, core.heap_bits_per_obj and
// runtime.gc_pause_total_ms in its traced run. The snapshot image describes
// device state, not this layout (an unsealed group still checkpoints one
// serialized filter run per member), and states each fact once: NEMO1
// version 3 left out every field restore can compute, and version 4 adds
// the one fact a restore cannot, each group's filter width. Its bytes are
// pinned by the version-4 golden (TestSnapshotBytesMatchMapLayout), whose
// transition record names every field that moved from version 3 and why.
// Version-1, -2 and -3 files are refused with ErrVersion and the engine
// starts cold.
//
// # The serving layer
//
// internal/server turns the engine into a network service: a memcached
// text-protocol front end over Engine, run by cmd/nemoserve and driven
// over loopback by three of benchmark/'s four workloads (get_fits,
// write_churn, twitter_mix: throughput_ops_s, get_p50_us … wire.get_p999_us)
// and by `nemobench chaos`. The protocol subset is get/gets (multi-key),
// set, delete, stats, version, and quit, with noreply honored on
// set/delete. Each connection is one goroutine whose read loop accumulates
// the requests already pipelined on the wire — never blocking on a
// half-received line — into a batch of at most 64 requests and 1 MiB of
// keys and values; consecutive gets coalesce into one GetMany round, so the
// engine's batched read surface is what actually serves the wire, and every
// set is one SetAsync. Replies are written strictly in request order and flushed once
// per batch; a malformed request occupies its pipeline position as an
// ERROR/CLIENT_ERROR reply and never kills the connection.
// A connection holds 32 KiB (a 16 KiB read and a 16 KiB write buffer) for
// its life and waits between requests in a read into the former, so a
// request that arrives in one segment costs one transport read. Depth-1 cost
// is benchmark/'s get_fits · throughput_ops_s and server.self_us_per_req rows.
//
// Stored values carry a 4-byte big-endian flags envelope ahead of the
// data, which round-trips memcached flags and keeps protocol-level empty
// values representable (the engine reserves zero-length values for
// tombstones); the `gets` cas token is an FNV-1a fingerprint of the stored
// value, a change detector only — the cas verb itself is not implemented.
// Three deliberate protocol departures, all consequences of Nemo having no
// exact per-object index: delete always answers DELETED (a tombstone
// insert cannot know whether the key existed), exptime is accepted and
// ignored (TTL rides elsewhere), and flush_all is absent.
//
// Every SET is one SetAsync, and the engine's Config.Flushers alone decides
// what STORED means. With a flusher pool (nemoserve's default, 2) it means
// "accepted": flush errors surface in Stats.WriteErrors, in the `stats` verb
// (which reports the server's protocol counters next to every
// cachelib.Stats field under an engine_ prefix), and on drain. With
// `-flushers 0` the insert runs its flush inline, STORED means "survived any
// flush it triggered", and a failed flush answers SERVER_ERROR to exactly
// the set whose insert ran it. Shutdown is a graceful drain: stop
// accepting, interrupt blocked reads, let every handler answer its
// in-flight batch, then Drain the engine — so no acknowledged write is left
// behind in a memory SG.
// The suite pinning all of this reaches the server only through Serve, on
// TCP loopback or an in-memory listener of net.Pipe connections: golden
// byte-for-byte conformance transcripts, FuzzParseCommand (checked-in corpus; a key
// with an embedded CR/LF can never survive parsing), a loopback stress
// test under -race asserting server stats equal client-side tallies
// exactly, and graceful-drain tests including a blockable write fault
// released mid-shutdown.
//
// # Failure domains and degraded mode
//
// Client and load faults are the server's: MaxConns/RejectBusy,
// IdleTimeout, ReadTimeout and MaxItemBytes in internal/server's Config,
// beside the fixed 1 MiB batch byte budget, all enforced by Serve's accept
// loop and the connection it admits. Device faults are the engine's —
// bounded append retries, then a per-shard circuit breaker into read-only
// degraded mode with half-open probes: internal/core/health.go's header. `nemobench chaos` arms a seeded device.FaultPlan under loopback
// load, heals the device and fails unless the stack recovers on its own.
//
// # The device contract
//
// Engines accept device.Device and never a concrete type. The contract — what
// a failed operation may change (nothing), buffer ownership, what runs in
// parallel, when fault hooks run, the crash model — is internal/device's
// package comment, beside device.Zoned, the one state machine that enforces
// it over two media: internal/flashsim (memory, virtual time; the default)
// and internal/filedev (`-device=file:<path>`; what benchmark/ runs on).
//
// # Warm restart
//
// The engine checkpoints its index metadata (never object data) as a NEMO1
// image and adopts it on boot only when decode, geometry, configuration,
// structural invariants and the device generation stamp all match; any
// refusal cold-formats. internal/snapshot's and internal/core/snapshot.go's
// headers are the description; benchmark/ reports snapshot.restore_ms and
// snapshot.hit_retention in every traced run.
//
// # What the package exposes
//
//   - The Nemo cache itself (NewSharded, the one constructor, returning a
//     ShardedCache; Config, DefaultConfig). Config.Shards (0 is 1)
//     hash-partitions the key space into independent shards, each owning a
//     disjoint slice of the device's zones, its own in-memory SGs, PBFG
//     index, and lock, so requests for different shards proceed in parallel
//     and Stats aggregates without a global lock. The cache owns the
//     flusher pool, checkpoint and restore; Readout sums every counter and
//     the resident ledger, and Shard(i).Readout adds what only a shard has
//     (Table 6's model, the breaker).
//   - The simulated zoned flash device it runs on (NewDevice) — the
//     substitution for the paper's ZNS SSD, with full write/read/erase
//     accounting, per-zone and per-channel locking for concurrent shards,
//     and a virtual-time latency model.
//   - The paper's four baselines as interchangeable engines
//     (NewLogCache, NewSetCache, NewKangaroo, NewFairyWREN); see
//     "Baselines" above.
//   - The sharded facade (ShardedEngine), the one router in the
//     repository: ShardedCache embeds it over its Nemo shards, and it gives
//     every baseline the same sharded/concurrent treatment (each baseline
//     package's NewSharded). The zone range is partitioned into per-shard
//     engines, requests route by one hash lane — identical key
//     partitioning across engines — and a batch is routed with each key
//     hashed once, then split into per-shard sub-batches fanned out in
//     parallel (each shard hashes its keys again for its own placement).
//     With shards=1
//     the facade is stat-for-stat the bare engine (pinned per baseline by
//     equivalence property tests), so the paper's single-threaded numbers
//     remain reproducible from the same code path (`nemobench compare`).
//   - Workload generators parameterized like the paper's Twitter traces
//     (NewWorkload, Clusters, NewMixedStream), a sequential replay harness
//     (Replay), and a parallel replay driver over a materialized trace
//     (Materialize, ParallelReplay): one goroutine per shard, one engine
//     call per request, each shard's requests in trace order, so hit ratio
//     and write amplification are the serial replay's whatever the
//     schedule. Every fill is a SetAsync, so the engine's flusher pool
//     decides where it flushes. The replayer reads no clock: wall-clock
//     numbers come from benchmark/ only.
//
// A minimal session:
//
//	dev := nemo.NewDevice(nemo.DeviceConfig{})                 // 64 MB simulated ZNS
//	cache, err := nemo.NewSharded(nemo.DefaultConfig(dev, 56)) // 56-zone SG pool
//	if err != nil { ... }
//	cache.Set([]byte("user:1234"), []byte("tiny object"))
//	v, hit := cache.Get([]byte("user:1234"))
//	cache.Delete([]byte("user:1234"))
//
// See Example_batch for the whole of Engine end to end (GetMany, SetAsync,
// Drain, Delete on an 8-shard cache) and the other Example functions for
// the paper's studies at toy scale, benchmark/README.md for what is
// measured and how, and `nemobench list` / `nemobench exp <id>` to
// regenerate every table and figure of the paper as an experiments.Report.
package nemo
