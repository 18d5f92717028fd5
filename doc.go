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
// Drain, Stats, ReadLatency, Close. It is the neutral harness surface the
// paper's comparisons need, and the server, the replayers and ShardedEngine
// are written against it with no adapter in between.
//
//   - GetMany/SetMany. Cache executes a batch under one lock acquisition;
//     ShardedEngine — and ShardedCache, which embeds it — takes one hash
//     pass, groups into per-shard sub-batches and fans out across shards in
//     parallel: the multi-get pattern of a cache service front end. The
//     baselines have nothing to batch and loop over their own Get and Set.
//   - SetAsync/Drain. Nemo inserts into the in-memory SG and returns; when
//     the rear-full trigger fires, the full SG's flush is handed to a
//     background flusher pool (Config.Flushers goroutines, shared across
//     shards) instead of running inline on the inserting worker. The flush
//     is the p99 outlier of the Set path — `nemobench -compare -engines
//     nemo -async` shows it moving off the latency distribution. Drain awaits all
//     deferred work; a sacrifice budget backpressures to inline flushing
//     if the pool ever lags. The baselines have nothing to defer: their
//     SetAsync is Set and their Drain returns nil.
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
// migration; Log is a log with an exact index. Each engine owns one mutex,
// Stats and latency histogram; tier and front are lock-free and account
// into them, and each engine's zero-value Config is the paper's Table 4.
// `nemobench -exp fig12a` reports the five designs' steady-state write
// amplification (internal/experiments/fidelity_test.go holds each figure
// to the paper's values and states where this reproduction departs);
// `nemobench -compare` replays one mixed trace through all five behind the
// same sharded facade (hit ratio, ALWA, total WA, read and write errors,
// throughput per engine × shard count).
//
// # The concurrent read path
//
// GETs do their flash I/O outside the shard lock. Each lookup runs in
// three phases: a short locked plan (fingerprint → set offset, in-memory
// probe, one group test in place per index group whose PBFG page is in
// memory — k row loads answer for all of its members at once, see "PBFG
// pages" below — leaving the candidate SGs, with their page addresses, and
// the PBFG pages missing from the index cache — plus the SG epoch: pool head
// ID and flush sequence), an unlocked I/O phase (PBFG fetches and the group
// tests that waited on them, parallel candidate-page reads into pooled
// per-goroutine buffers, key scan), and a short locked commit that
// re-validates the epoch before applying the read-side effects (hit/read
// counters, hotness bits, index-cache publication, latency sample). If a
// flush or eviction moved the flash layout mid-read, the pass is discarded —
// its device reads still counted, the pages it fetched dropped unpublished —
// and the unresolved keys are redone under the lock already held, so a
// lookup takes at most two passes. There is one routine: GetMany plans,
// reads, and commits a whole batch per lock acquisition, sharing PBFG
// fetches across the batch's keys, and Get is its one-key case.
//
// The steady-state GET allocates exactly once on a hit (the returned value
// copy) and not at all on a clean miss — pinned by allocation-regression
// tests. Its speed is the lib_direct workload of benchmark/
// (throughput_ops_s, cpu_us_per_op, runtime.allocs_per_op; traced:
// core.get_self_us_per_key, core.flash_reads_per_get);
// BenchmarkParallelGet measures single-shard goroutine scaling.
//
// Driven serially, the three-phase path performs the identical reads with
// identical statistics to the historical fully-locked path (one deliberate
// improvement aside: index-cache publication is deferred to the commit
// phase, which removes the old path's duplicate PBFG fetches within a
// single capacity-pressured lookup), so every equivalence and determinism
// pin (shards=1 vs seed, `-compare -notime` across worker counts) holds
// unchanged. Under truly concurrent GETs,
// hit/miss results and every write-side counter stay exact; only the
// index-cache lookup/miss counters and the flash-read counters can
// inflate, because a conflicted attempt's device reads really happened and
// racing readers may duplicate a PBFG fetch before either publishes it.
// GET-path device read errors are never swallowed: a failed read degrades
// to a miss and lands in Stats.ReadErrors (the rderr column of the
// -compare table).
//
// # The concurrent write path
//
// SG flushes mirror the same protocol, so neither half of the cache holds
// the shard lock across flash I/O. A flush runs in three phases: a locked
// seal (the eviction victim is popped and its zones — plus its index
// group's, when the group retires with it — return to the free lists; the
// flush's data zones and, for a group-completing SG, its index zones are
// reserved; the SG id is assigned, advancing the SG epoch; and the front
// in-memory SG detaches into a sealed slot with a fresh rear rotated in),
// an unlocked build (the eviction victim's set pages are read back, and —
// after a short locked interlude that runs the hotness/shadow liveness
// filtering and inserts writeback survivors into the sealed SG — the freed
// zones are erased, the sealed SG serializes through the kit's page buffer
// onto the reserved data zones, its Bloom filters are built in the flush
// kit, and a completing index group's PBFG pages — the group buffer's
// pages with this last member's column merged into a copy — are appended),
// and a locked commit (the flash SG publishes into its group and the FIFO
// pool, its filters merge into the group buffer as one column, the
// write-side counters apply, cooling runs if due).
//
// Between seal and commit the flushing SG's objects are served from the
// sealed slot: reads probe it after memq (any memq copy is newer), a
// racing Delete still plants its tombstone, and writeback never resurrects
// a version it shadows. The epoch rule extends naturally: a seal bumps the
// flush sequence (and an eviction moves the pool head) before any zone is
// erased or rewritten, so optimistic readers that planned before the seal
// replan, while readers that plan during the build never reference the
// unpublished SG or the victim's zones. At most one flush is in flight per
// shard; a synchronous flush that finds one in flight waits it out and
// coalesces (the committed flush already rotated the queue, so re-flushing
// would only write a fresh, nearly-empty front).
//
// Driven serially the three phases run back to back and are write-for-write
// and stat-for-stat identical to the historical fully-locked flush — every
// equivalence and determinism pin (shards=1 vs seed, `-compare -notime`
// byte-identity, batch/worker independence) holds unchanged. Under
// concurrency, foreground GETs and SETs on a shard overlap the entire SG
// write and eviction read-back; hit/miss outcomes and the write-side
// counters stay exact, with only the racing-reader inflations documented
// above (and Nemo's async flusher timing, which shifts flush boundaries
// and therefore SG fill rates, remains the one documented -compare
// nondeterminism). A steady-state Set
// that triggers no flush allocates nothing (pinned by
// allocation-regression tests); the write path's numbers are the
// write_churn workload of benchmark/ (throughput_ops_s, set_p50_us,
// set_p99_us, alwa) for the asynchronous pipeline and lib_direct ·
// core.set_p99_us for the flush inline on the caller.
//
// A flush that hits a device error cannot wedge the shard: the reserved
// and freed zones are erased and returned, the sealed SG's objects are
// dropped (counted as Evictions — a cache may always miss), and the
// failure lands in Stats.WriteErrors the moment it happens (surfaced as
// the wrerr column of the -compare table) as well as in the Set
// error (sync) or Drain/Close error (async).
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
//   - The PBFG index cache is a flat open-addressing table (packed
//     (group,set) uint64 keys, ≤50% load, sized once at construction)
//     whose values index page-size slots carved from large []byte slabs.
//     There are no per-page allocations and no map[...]... anywhere on the
//     hot path; FIFO eviction, the stale-queue compaction, and the
//     lookup/miss counters behave exactly as the map-based layout did.
//   - flashSG structs live in fixed-size chunks, and each SG's per-set
//     object counts, prefix-sum bases, and hotness bits pack into one
//     contiguous []uint32 run carved at flush commit (or snapshot
//     restore) — which is also when the prefix sums are computed, once,
//     instead of lazily on every probe.
//   - Every setblock page is a carve of a slab: an in-memory SG's sets of
//     the SG's, a flush victim's read-back pages of the flush kit's. A kit is
//     what only a running flush needs — the rear SG its seal rotates in, the
//     read-back slab, page and filter scratch — taken from a free list all
//     shards share and returned with the flushed SG as its spare
//     (writepath.go). An unsealed group's PBFG pages are one buffer, dropped
//     whole when the group seals.
//
// Resident memory is index(objects) + Shards × InMemSGs × SG +
// min(flushes in flight, max(1, Flushers)) × kit, with SG ≈ kit/2 ≈ a zone
// of bytes; ResidentBytes sums it, split those three ways beside what
// MemoryOverhead models for the same objects, and the stats verb prints it
// (resident_* rows). Before kits each shard kept its own spare SG and
// scratch: write_churn · engine_heap_mib 28.9 → 24.8 MiB at 4 shards and 2
// flushers (CHANGES.md, PR 23: the pairs, and the traced
// core.heap_bits_per_obj beside an unmoved core.resident_objs).
//
// PBFG pages. A PBFG page holds the set-level Bloom filters of one intra-SG
// offset across the M SGs of an index group (Config.SGsPerIndexGroup, 50).
// There is one layout, on flash, in the index cache and in the unsealed
// group's buffer alike, and it is bit-sliced: row r of the page — one row per
// filter bit, 576 at the default geometry — holds bit r of every member's
// filter, member s's at page bit r·M+s, so the page is exactly M filters
// long and the "M filters of bfBytes fit one device page" constraint is
// what it always was. A lookup computes its k = 10 probe positions once and
// ANDs the k rows they name (one unaligned 8-byte load, shift and mask each,
// which is why M is capped at 57: bloom.MaxGroupMembers); the surviving
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
// in-flight slot, on built, sealed and snapshot-restored pages;
// BenchmarkPBFGGroupTest prices one group test at ≈ 100 ns against ≈ 790 ns
// for the 50 per-member probes over a cache-cold 8 MiB of pages, and
// CHANGES.md (PR 16) has what that bought on lib_direct · throughput_ops_s.
//
// The ownership rule that makes immediate recycling safe under the
// optimistic read protocol: arena memory is only ever dereferenced while
// holding the shard lock. A read's plan phase Bloom-tests the filters
// where they lie and keeps only the outcome — the candidate SGs and their
// precomputed page addresses; the unlocked I/O phase touches only that
// list, the PBFG pages it fetched itself and its own pooled buffers, and
// the commit phase re-validates
// the SG epoch before touching any SG — an epoch match proves no flush or
// eviction recycled anything the plan referenced. Freed slots therefore go
// straight back to their free lists, with no deferred reclamation, and the
// arena leak test pins slot accounting plus process HeapObjects flat over
// fill→evict→refill churn (TestArenaFlatOverChurn). Every benchmark/
// workload reports the result — engine_heap_mib end to end, and
// runtime.heap_objects, core.heap_bits_per_obj and
// runtime.gc_pause_total_ms in its traced run. The snapshot image describes
// device state, not this layout: its bytes are pinned identical to the
// map-based layout's (an unsealed group still checkpoints one serialized
// filter run per member). What a snapshot does depend on is how the PBFG
// pages it points at are arranged on flash, so the bit-sliced pages bumped
// snapshot.Version to 2: a version-1 file is refused with ErrVersion and the
// engine starts cold.
//
// # The serving layer
//
// internal/server turns the engine into a network service: a memcached
// text-protocol front end over Engine, run by cmd/nemoserve and driven
// over loopback by three of benchmark/'s four workloads (get_fits,
// write_churn, twitter_mix: throughput_ops_s, get_p50_us … wire.get_p999_us)
// and by `nemobench -chaos`. The protocol subset is get/gets
// (multi-key), set, delete, stats, version, and quit, with noreply
// honored on set/delete. Each connection is one goroutine whose read loop
// accumulates the requests already pipelined on the wire — never blocking
// on a half-received line — into a batch (Config.MaxBatch, default 64);
// consecutive gets coalesce into one GetMany round and, in SyncSet mode,
// consecutive sets into one SetMany, so the engine's batched surface is what
// actually serves the wire. Replies are written strictly in request order
// and flushed once per batch; a malformed request occupies its pipeline
// position as an ERROR/CLIENT_ERROR reply and never kills the connection.
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
// SETs ride SetAsync by default — STORED means "accepted", and flush
// errors surface in Stats.WriteErrors, in the `stats` verb (which reports
// the server's protocol counters next to every cachelib.Stats field under
// an engine_ prefix), and on drain; `-sync-set` serves stores through the
// synchronous path instead, making STORED mean "survived any flush it
// triggered". Shutdown is a graceful drain: stop accepting, interrupt
// blocked reads, let every handler answer its in-flight batch, then Drain
// the engine — so no acknowledged write is left behind in a memory SG.
// The suite pinning all of this: golden byte-for-byte conformance
// transcripts over net.Pipe, FuzzParseCommand (checked-in corpus; a key
// with an embedded CR/LF can never survive parsing), a loopback stress
// test under -race asserting server stats equal client-side tallies
// exactly, and graceful-drain tests including a blockable write fault
// released mid-shutdown.
//
// # Failure domains and degraded mode
//
// The serving stack separates its failure domains: a misbehaving client, a
// saturating connection load, and a failing flash device each hit a
// dedicated mechanism instead of a shared fate.
//
// Client and load faults are the server's. Config.MaxConns caps concurrent
// connections — beyond it new dials park in the accept queue
// (backpressure), or with Config.RejectBusy are answered `SERVER_ERROR
// busy` and closed. Config.IdleTimeout drops connections that stop issuing
// request batches; Config.ReadTimeout bounds every read inside a request,
// so a client that trickles a header or stalls mid-value (the slow loris)
// is cut off without a goroutine leaking per stall. The two disconnect
// kinds are accounted separately (idle_disconnects, deadline_disconnects,
// plus conns_rejected, in the `stats` verb), and Config.MaxBatchBytes
// bounds how many inbound value bytes one connection can buffer regardless
// of pipeline depth.
//
// Device faults are the engine's. Every write failure already recovers
// locally (the flush-error contract above); Config.WriteRetries adds a
// bounded in-place retry with exponential Config.RetryBackoff beneath
// that, absorbing transient append errors (counted in Stats.WriteRetries).
// Sustained failure trips the per-shard circuit breaker:
// Config.BreakerThreshold consecutive flush failures flip that shard —
// and only that shard — into read-only degraded mode. While degraded,
// writes fail fast with ErrDegraded (the serving layer answers
// `SERVER_ERROR degraded`) instead of queueing doomed flushes, and GETs
// keep serving everything already on flash or in memory. Every
// Config.BreakerProbeAfter of device time the breaker goes half-open and
// admits exactly one probe write, whose flush runs synchronously: success
// closes the breaker, failure re-opens it for another interval. The
// episode is visible in Stats (BreakerOpen, DegradedEntered,
// DegradedSeconds, DegradedRejects) and per shard via Health. The breaker
// is off by default in the library (BreakerThreshold 0 — every
// determinism pin runs unchanged) and on by default in nemoserve
// (-degraded-threshold 3; SIGQUIT dumps the server counters and each
// shard's breaker state).
//
// The chaos harness proves the two domains compose. device.FaultPlan is a
// seeded, deterministic fault schedule (error rates, fail-N-then-recover,
// per-zone kills, added latency) armed over the SetReadFault/SetWriteFault
// hooks of either backend; `nemobench -chaos` serves a breaker-enabled
// engine over loopback, injects a named scenario under client load, heals
// the device, and fails the run unless the stack recovers on its own —
// reporting availability, typed degraded sheds, and recovery time
// (BENCH_chaos.json in CI). The acceptance pin: a total 30-second write
// outage with 100% GET availability, typed SET sheds, and automatic
// half-open recovery. Checkpoint crashes get the same treatment — a save
// killed between temp-file write and rename leaves the previous snapshot
// intact plus an inert .tmp dropping, and the next boot warm-restarts
// past both (torture-tested in-process and with kill -9 in CI).
//
// # The device contract
//
// Engines never see a concrete device type: internal/device defines the
// zoned-device contract (the Device interface) and everything engine-facing
// — core.Config.Device, every baseline's Config.Device, the sharded facade
// — accepts it. A device is a fixed geometry (PageSize × PagesPerZone ×
// Zones, optionally MaxOpenZones) of append-only zones: AppendPage programs
// at a zone's write pointer (short appends are zero-padded to a full page),
// ResetZone is the erase that rewinds it, and reading a page at or beyond
// its zone's write pointer yields zeroes rather than stale bytes. The
// normative text — what a failed operation may change (nothing), buffer
// ownership, what runs in parallel, when fault hooks run, the crash model —
// is internal/device's package comment, beside the code that enforces it.
//
// That code exists once. device.Zoned is the state machine: per-zone
// RWMutex and write pointer (distinct zones in parallel, reads of one zone
// in parallel, same-zone appends serialized), open-zone accounting against
// MaxOpenZones, the counters behind Stats and Generation.Writes, argument
// validation, zero-fill at or beyond a write pointer, the Append and
// ReadPages loops (one page append or read per page, in order), and the
// SetReadFault/SetWriteFault hooks, which run after validation, before any
// state change and outside every zone lock — a hook that blocks parks its
// caller without wedging the device; the fault tests and the drain suite
// rely on exactly that. It is parameterised by a five-method device.Media
// (store a page, load a page, erase a zone, "about to mutate", completion
// time of an operation), and the two backends are that and nothing more:
//
//   - internal/flashsim (NewDevice; the default of nemobench, every -exp
//     and most tests) keeps zone contents in lazily allocated memory and
//     times operations on per-channel virtual-time schedulers, so latency
//     columns are deterministic.
//   - internal/filedev (OpenFileDevice, or `-device=file:<path>` on
//     nemobench/nemoserve; what all four BENCHMARK.json workloads run on)
//     keeps them in one flat image file — each page a single pwrite or
//     pread at page × PageSize, optional O_DIRECT through aligned bounce
//     buffers, resets hole-punched — and reports measured wall-clock
//     completion times. On the benchmark host that is page-cache I/O:
//     `device.read_p50_us` 1.1–2.8 µs across the four workloads (1.6 µs,
//     p99 4.2 µs, on `lib_direct`) and `device.append_us_per_page`
//     2.0–3.0 µs in the traced pairs CHANGES.md records for PR 17 — not
//     flash numbers; a batch's pages are read serially
//     (`device.pages_per_read_call`), so a GetMany's device time is the
//     sum of its reads.
//
// filedev's durability caveats are deliberate for a cache: appends are not
// individually fsynced, and without Config.Persist Open reformats (every
// write pointer starts at zero). Persist mode (used by warm restart, below)
// adds a superblock page past the data capacity holding the write pointers
// and the generation stamp: a cleanly closed image reopens warm, and the
// first mutation after any open invalidates the superblock, so a killed
// process cold-formats the next open; after power loss the image must be
// discarded (the invalidation is not fsync-ordered before zone writes).
// TestDifferentialContract drives both backends and an independent model
// through the same seeded histories, and under `-notime` the quality half
// of the compare table (hit ratio, ALWA, total WA, evictions) is
// byte-identical across backends; only timing may differ.
//
// # Warm restart
//
// A cache that loses its index on restart serves cold traffic for hours,
// so the engine can checkpoint its metadata and adopt it back on boot.
// internal/snapshot defines the NEMO1 format: an index-only, fixed-width,
// little-endian image of every per-shard structure — the flashSG directory
// and index groups, per-set object counts, hotness bitmaps, unsealed
// groups' Bloom-filter buffers, zone free lists in pop order, the buffered
// in-memory SGs (whole set pages), the PBFG index cache (queue order plus
// cached-page set; page contents are re-read from flash on restore), the
// flush-fill log, and every counter in Stats and NemoStats. Sections carry
// individual CRCs under a footer CRC, encoding is canonical
// (Encode(Decode(b)) == b, pinned by fuzzing), and Save is a full
// atomic-rename rewrite. Object data is never checkpointed — it already
// lives on flash.
//
// Snapshots are strictly throwaway. Restore (Config.SnapshotPath at
// New/NewSharded) adopts a snapshot only when everything matches: decode
// must be perfect (any truncation, bit flip, or slack byte is a typed
// refusal), the geometry and the engine configuration must equal the
// stamp, every structural invariant of the restored state must hold (zone
// partition tiles exactly, group/SG id order, write-pointer cross-checks
// against the device), and the device generation stamp —
// device.Generation's Boot (unique per cold format) and Writes (every
// append and reset) — must be exactly the one the checkpoint sampled, so
// any device mutation after the checkpoint, or a different device life,
// walls the snapshot off as stale. Any refusal cold-formats with the cause
// in RestoreOutcome; nothing is ever replayed or partially trusted, and a
// cold format adopts a dirty device safely (stale zones are rewound on
// first reuse). Checkpoint (also run by Close when SnapshotPath is set)
// drains in-flight flushes, captures all shards at a commit boundary, and
// samples the generation under the locks, so a checkpoint is exact: the
// kill-and-restore suite pins stat-for-stat equality between an
// interrupted and an uninterrupted run, and checkpoint→restore→checkpoint
// reproduces the snapshot byte for byte.
//
// The layers above thread it through: nemoserve -snapshot restores on
// boot, checkpoints on graceful drain (and periodically with
// -snapshot-every), and opens the file device in Persist mode so a real
// process restart comes back warm; benchmark/ checkpoints, tears the
// system down and warm-restores it in every traced run and reports restore
// time and warm hit retention (snapshot.restore_ms,
// snapshot.hit_retention). The simulator is volatile by design — a sim
// "restart" never matches the fresh device's generation and starts cold.
//
// # What the package exposes
//
//   - The Nemo cache itself (New, Config, DefaultConfig).
//   - A sharded, concurrent variant (NewSharded, Config.Shards): the key
//     space is hash-partitioned into independent engines, each owning a
//     disjoint slice of the device's zones, its own in-memory SGs, PBFG
//     index, and lock, so requests for different shards proceed in
//     parallel and Stats aggregates without a global lock.
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
//     partitioning across engines — and batches take one hash pass, group
//     into per-shard sub-batches, and fan out in parallel. With shards=1
//     the facade is stat-for-stat the bare engine
//     (pinned per baseline by equivalence property tests), so the paper's
//     single-threaded numbers remain reproducible from the same code
//     path (`nemobench -compare`, above).
//   - Workload generators parameterized like the paper's Twitter traces
//     (NewWorkload, Clusters, NewMixedStream), a sequential replay harness
//     (Replay), and a parallel replay driver over a materialized trace
//     (Materialize, ParallelReplay) with deterministic per-shard sequencing — hit ratio
//     and write amplification are independent of worker count and batch
//     size while throughput scales with cores. Batched replay
//     (ParallelReplayConfig.BatchSize) drives GetMany/SetMany with
//     per-shard batch composition and merged multi-shard fan-out; AsyncSets
//     routes fills through the flush pipeline; Set latency percentiles
//     land in ParallelReplayResult.SetLatency. `nemobench -compare
//     -engines nemo` prints the per-shard-count table.
//
// A minimal session:
//
//	dev := nemo.NewDevice(nemo.DeviceConfig{})          // 64 MB simulated ZNS
//	cache, err := nemo.New(nemo.DefaultConfig(dev, 56)) // 56-zone SG pool
//	if err != nil { ... }
//	cache.Set([]byte("user:1234"), []byte("tiny object"))
//	v, hit := cache.Get([]byte("user:1234"))
//	cache.Delete([]byte("user:1234"))
//
// See examples/batch for the whole of Engine end to end (GetMany, SetAsync,
// Drain, Delete on a sharded cache), benchmark/README.md for what is
// measured and how, and `nemobench -list` / `nemobench -exp <id>` to
// regenerate every table and figure of the paper as an experiments.Report.
package nemo
