package core

// Warm restart: Checkpoint captures a quiescent engine's per-shard metadata
// into an internal/snapshot NEMO1 image, and the restore path in NewSharded
// fills the cold shards it just built from one — replaying nothing —
// validating each shard section against the live device and configuration
// as it writes it in. The contract is strictly throwaway: any defect (typed
// snapshot error, geometry or config mismatch, stale generation stamp,
// violated structural invariant, unreadable PBFG page) abandons the
// snapshot, and NewSharded builds every shard cold again, so the engine
// starts exactly as if the file never existed — whatever shards the restore
// had filled before the defect turned up included. RestoreOutcome reports
// which happened and why.
//
// What a snapshot restores is everything a restarted engine needs to be
// stat-for-stat identical to one that never stopped: the flashSG directory
// and index groups (with unsealed Bloom-filter buffers and hotness
// bitmaps), zone free-list order, epoch counters, the buffered in-memory
// SGs, the PBFG index-cache queue (cached pages are re-read from flash, not
// stored), and all statistics. Deliberately not durable: the read-latency
// histogram (measurement, not state) and any in-flight flush — Checkpoint
// waits flushes out, so a snapshot never describes a half-committed SG.
//
// The image states each fact once (NEMO1 version 5); restore computes the
// rest rather than reading and reconciling copies: a group's id from its
// position and NextGroup, its sealing from its index zone, its live count
// and live mask from its members; an SG's slot from its position, its
// object count from its set counts; and the cached pages from the queue.
// A group's filter width is read, not derived: its pages were built at it.

import (
	"errors"
	"fmt"
	"io/fs"
	"math"

	"nemo/internal/bloom"
	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/snapshot"
)

// configStamp reduces a Config to the snapshot's ConfigStamp: the fields
// that shape on-flash layout or checkpointed state, with the same
// normalizations the constructors apply (Shards collapses to 1).
func configStamp(cfg Config) snapshot.ConfigStamp {
	st := snapshot.ConfigStamp{
		DataZones:         cfg.DataZones,
		Shards:            cfg.Shards,
		FlushThreshold:    cfg.FlushThreshold,
		SGsPerIndexGroup:  cfg.SGsPerIndexGroup,
		BloomFPR:          cfg.BloomFPR,
		CachedPBFGRatio:   cfg.CachedPBFGRatio,
		CoolingWriteRatio: cfg.CoolingWriteRatio,
		BufferedSGs:       cfg.BufferedSGs,
		DelayedFlush:      cfg.DelayedFlush,
		Writeback:         cfg.Writeback,
	}
	if st.Shards < 1 {
		st.Shards = 1
	}
	return st
}

// Checkpoint writes a NEMO1 snapshot of the whole cache to path
// (atomically, via rename), stamped with the facade's Config. Deferred
// flushes are drained, then every shard is locked and its in-flight flush
// waited out before any shard is captured, so the captured state is a clean
// commit boundary; the device generation stamp is sampled inside the same
// quiescent window, so it vouches for every shard's state at once and the
// snapshot is exactly as valid as the device is untouched.
func (s *Sharded) Checkpoint(path string) error {
	if err := s.Drain(); err != nil {
		return fmt.Errorf("core: draining before checkpoint: %w", err)
	}
	shards := s.shards
	for _, c := range shards {
		c.mu.Lock()
	}
	// Waiting on one shard's flushCond releases only that shard's lock; an
	// in-flight flush needs only its own shard's lock to finish, so holding
	// the rest cannot deadlock — it just keeps new flushes from starting.
	for _, c := range shards {
		c.waitFlushIdleLocked()
	}
	dev := shards[0].dev
	f := &snapshot.File{
		PageSize:     dev.PageSize(),
		PagesPerZone: dev.PagesPerZone(),
		Zones:        dev.Zones(),
		Config:       configStamp(s.cfg),
	}
	for _, c := range shards {
		f.Shards = append(f.Shards, c.captureLocked())
	}
	gen := dev.Generation()
	f.Boot, f.Writes = gen.Boot, gen.Writes
	for _, c := range shards {
		c.mu.Unlock()
	}
	return snapshot.Save(path, f)
}

// captureLocked snapshots one shard's complete metadata. Caller holds c.mu
// with no flush in flight (c.sealed == nil), so memq, the group directory,
// and the free lists are all at a commit boundary.
func (c *Cache) captureLocked() snapshot.Shard {
	sh := snapshot.Shard{
		NextSGID:       c.nextSGID,
		NextGroup:      c.nextGroup,
		SacCount:       c.sacCount,
		BytesSinceCool: c.bytesSinceCool,
		ICLookups:      c.icache.lookups,
		ICMisses:       c.icache.misses,
		Stats:          countersOf(c.stats),
		Extra:          extraOf(c.extra),
		FreeDataZones:  append([]int(nil), c.freeDataZones...),
		FreeIndexZones: append([]int(nil), c.freeIndexZones...),
	}
	for _, g := range c.groups {
		sg := snapshot.Group{Zone: -1, FilterBits: g.bfBits}
		if g.sealed {
			sg.Zone = g.zone
		}
		for _, m := range g.members {
			// A dead SG's zone went back to the free list when it was
			// evicted (writepath.go); the one left on the struct is stale.
			sm := snapshot.SG{ID: m.id, Zone: -1}
			if !m.dead {
				sm.Zone = m.zone
			}
			sm.SetCounts, sm.Bits = m.snapMeta()
			sg.Members = append(sg.Members, sm)
		}
		// The unsealed buffer checkpoints member by member, each one's filters
		// serialized by set offset (the layout flushes build them in), so the
		// section does not depend on how the live buffer arranges its bits.
		for s := 0; !g.sealed && s < len(g.members); s++ {
			bf := make([]byte, 0, c.setsPerSG*g.bfBits/8)
			for o := 0; o < c.setsPerSG; o++ {
				bf = bloom.ExtractColumn(bf, c.bufPage(g, o), c.cfg.SGsPerIndexGroup, s, g.bfBits/8)
			}
			sg.SlotBF = append(sg.SlotBF, bf)
		}
		sh.Groups = append(sh.Groups, sg)
	}
	for _, m := range c.memq {
		ms := snapshot.MemSG{
			NewBytes: m.newBytes,
			WBBytes:  m.wbBytes,
			NewObjs:  m.newObjs,
		}
		for o := 0; o < c.setsPerSG; o++ {
			ms.Sets = append(ms.Sets, m.appendSet(o, nil))
		}
		sh.MemQ = append(sh.MemQ, ms)
	}
	for _, k := range c.icache.queue[c.icache.head:] {
		sh.ICQueue = append(sh.ICQueue, snapshot.PBFGRef{Group: int(k.group), Set: int(k.set)})
	}
	return sh
}

// validateSnapshotFile checks the file-level trust anchors: device geometry
// (ErrGeometry), the generation stamp — exact equality, any mutation since
// checkpoint refuses the snapshot (ErrStale) — and the configuration stamp
// plus shard count (ErrConfig).
func validateSnapshotFile(dev device.Device, stamp snapshot.ConfigStamp, f *snapshot.File) error {
	if f.PageSize != dev.PageSize() || f.PagesPerZone != dev.PagesPerZone() || f.Zones != dev.Zones() {
		return fmt.Errorf("%w: snapshot %dx%dx%d, device %dx%dx%d",
			snapshot.ErrGeometry, f.Zones, f.PagesPerZone, f.PageSize,
			dev.Zones(), dev.PagesPerZone(), dev.PageSize())
	}
	gen := dev.Generation()
	if gen.Boot != f.Boot || gen.Writes != f.Writes {
		return fmt.Errorf("%w: snapshot generation %d/%d, device %d/%d",
			snapshot.ErrStale, f.Boot, f.Writes, gen.Boot, gen.Writes)
	}
	if f.Config != stamp {
		return fmt.Errorf("%w: snapshot was taken under a different configuration", snapshot.ErrConfig)
	}
	if len(f.Shards) != stamp.Shards {
		return fmt.Errorf("%w: %d shard sections for %d shards", snapshot.ErrConfig, len(f.Shards), stamp.Shards)
	}
	return nil
}

// tryRestore fills one engine's freshly built cold shards (all of them, in
// order; cfg is the engine-level Config) from the snapshot at path. It is
// called from NewSharded before the engine is published — no locking. A
// missing file is a plain cold start (false, nil) and touches no shard.
// Anything else that stops the restore is reported, possibly after some
// shards were filled: NewSharded then builds every shard cold again, so a
// restore is adopted whole or not at all.
func tryRestore(path string, cfg Config, shards []*Cache) (bool, error) {
	f, err := snapshot.Load(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	if err := validateSnapshotFile(shards[0].dev, configStamp(cfg), f); err != nil {
		return false, err
	}
	for i, c := range shards {
		if err := c.restore(&f.Shards[i]); err != nil {
			return false, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return true, nil
}

// cfgErr and staleErr build the restore path's typed refusals.
func cfgErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", snapshot.ErrConfig, fmt.Sprintf(format, args...))
}

func staleErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", snapshot.ErrStale, fmt.Sprintf(format, args...))
}

// restore validates one shard's checkpointed metadata against this cold,
// unpublished cache's configuration and device, writing the live state into
// the cache as it goes; on an error the cache is half-filled and the caller
// discards it. Every structural invariant the engine relies on is
// re-checked rather than trusted: group sealing and member counts, SG-id
// order, exact zone partitioning between free lists and live SGs, Bloom and
// bitmap sizing, the index-cache queue naming distinct pages of sealed
// groups — and, against the device itself, the per-zone write pointers
// (free ⇒ empty, live ⇒ full). The generation stamp already guarantees the
// latter when it matches, but write pointers are cheap and a second,
// independent witness against a lying snapshot.
func (c *Cache) restore(sh *snapshot.Shard) error {
	cfg := &c.cfg
	ppz := c.dev.PagesPerZone()
	if sh.SacCount < 0 {
		return cfgErr("negative epoch counters")
	}
	if sh.NextGroup < len(sh.Groups) {
		return cfgErr("next group id %d below the %d groups", sh.NextGroup, len(sh.Groups))
	}
	if sh.NextGroup > math.MaxInt32 {
		return cfgErr("group id %d overflows the index-cache queue", sh.NextGroup)
	}
	c.sacCount, c.nextSGID, c.nextGroup = sh.SacCount, sh.NextSGID, sh.NextGroup
	c.bytesSinceCool = sh.BytesSinceCool
	c.stats, c.extra = statsOf(sh.Stats), nemoStatsOf(sh.Extra)

	// In-memory SG queue: parse every set's page image back into the cold
	// shard's empty SGs.
	if len(sh.MemQ) != len(c.memq) {
		return cfgErr("%d buffered SGs, want %d", len(sh.MemQ), len(c.memq))
	}
	for i, m := range c.memq {
		ms := &sh.MemQ[i]
		if len(ms.Sets) != c.setsPerSG {
			return cfgErr("buffered SG %d has %d sets, want %d", i, len(ms.Sets), c.setsPerSG)
		}
		m.newBytes, m.wbBytes = ms.NewBytes, ms.WBBytes
		m.newObjs = ms.NewObjs
		for o, page := range ms.Sets {
			if len(page) != c.pageSize {
				return cfgErr("buffered SG %d set %d is %d bytes, want %d", i, o, len(page), c.pageSize)
			}
			if err := m.decodeSet(o, page); err != nil {
				return cfgErr("buffered SG %d set %d: %v", i, o, err)
			}
		}
	}

	// Index groups and their member SGs. Group ids run densely up to
	// NextGroup-1 (the index cache resolves ids by offset into the list, and
	// the next group created must extend the run), so they follow from the
	// position. All but the last group must be sealed (groups seal in
	// creation order); SG ids must strictly increase in traversal order
	// (dense except where a failed flush burned an id).
	firstGroup := sh.NextGroup - len(sh.Groups)
	var prevSGID uint64
	haveSG := false
	for gi := range sh.Groups {
		sg := &sh.Groups[gi]
		g := &idxGroup{id: firstGroup + gi, sealed: sg.Zone >= 0, bfBits: sg.FilterBits}
		if sg.Zone < -1 {
			return cfgErr("group %d has index zone %d", g.id, sg.Zone)
		}
		// A group's width is fixed by its first member; a multiple of 64 up
		// to the page limit, or 0 while it has none.
		if w := sg.FilterBits; len(sg.Members) == 0 && w != 0 ||
			len(sg.Members) > 0 && (w < 64 || w%64 != 0 || w > c.maxBFBits) {
			return cfgErr("group %d of %d members has %d-bit filters", g.id, len(sg.Members), w)
		}
		if !g.sealed && gi != len(sh.Groups)-1 {
			return cfgErr("unsealed group %d is not the last group", g.id)
		}
		if g.sealed {
			if len(sg.Members) != cfg.SGsPerIndexGroup {
				return cfgErr("sealed group %d has %d members, want %d", g.id, len(sg.Members), cfg.SGsPerIndexGroup)
			}
			if len(sg.SlotBF) != 0 {
				return cfgErr("sealed group %d still carries filter buffers", g.id)
			}
			g.zone = sg.Zone
			g.cached = uncached(c.setsPerSG)
		} else {
			if len(sg.Members) >= cfg.SGsPerIndexGroup {
				return cfgErr("unsealed group %d has %d members, limit %d", g.id, len(sg.Members), cfg.SGsPerIndexGroup)
			}
			if len(sg.SlotBF) != len(sg.Members) {
				return cfgErr("unsealed group %d has %d filter buffers for %d members", g.id, len(sg.SlotBF), len(sg.Members))
			}
			// Rebuild the group buffer the way flushes filled it: one
			// commit-time merge per checkpointed member.
			for s, bf := range sg.SlotBF {
				if want := c.setsPerSG * g.bfBits / 8; len(bf) != want {
					return cfgErr("group %d filter buffer %d is %d bytes, want %d", g.id, s, len(bf), want)
				}
				c.mergeFilters(g, s, bf)
			}
		}
		for s := range sg.Members {
			sm := &sg.Members[s]
			if haveSG && sm.ID <= prevSGID {
				return cfgErr("SG id %d out of order after %d", sm.ID, prevSGID)
			}
			if sm.ID >= sh.NextSGID {
				return cfgErr("SG id %d not below nextSGID %d", sm.ID, sh.NextSGID)
			}
			prevSGID, haveSG = sm.ID, true
			if sm.Zone < -1 {
				return cfgErr("SG %d has zone %d", sm.ID, sm.Zone)
			}
			if len(sm.SetCounts) != c.setsPerSG {
				return cfgErr("SG %d has %d set counts, want %d", sm.ID, len(sm.SetCounts), c.setsPerSG)
			}
			m := &flashSG{id: sm.ID, group: g, slot: s, nsets: c.setsPerSG,
				zone: sm.Zone, dead: sm.Zone < 0}
			for _, n := range sm.SetCounts {
				m.objCount += int(n)
			}
			if sm.Bits != nil && len(sm.Bits) != (m.objCount+63)/64 {
				return cfgErr("SG %d bitmap of %d words for %d objects", sm.ID, len(sm.Bits), m.objCount)
			}
			// Make the packed meta from the checkpointed counts, then unpack
			// the hot words into it (the inverse of captureLocked's repack).
			carveMeta(m, sm.SetCounts)
			if sm.Bits != nil {
				m.loadBits(sm.Bits)
			}
			g.members = append(g.members, m)
			if !m.dead {
				c.pool = append(c.pool, m)
				g.live |= 1 << uint(s)
				g.liveCount++
			}
		}
		if g.sealed && g.liveCount == 0 {
			return cfgErr("sealed group %d is fully dead but still present", g.id)
		}
		c.groups = append(c.groups, g)
	}

	// Zone partitioning: the free lists and the live SGs / sealed groups
	// must tile the shard's data and index ranges exactly — no zone missing,
	// none claimed twice, none outside the shard's slice of the device.
	dataBase := c.zoneBase
	idxBase := c.zoneBase + cfg.DataZones
	idxZones := IndexZonesFor(cfg.DataZones, cfg.SGsPerIndexGroup)
	liveData := make([]int, 0, cfg.DataZones)
	for _, m := range c.pool {
		liveData = append(liveData, m.zone)
	}
	liveIdx := make([]int, 0, idxZones)
	for _, g := range c.groups {
		if g.sealed {
			liveIdx = append(liveIdx, g.zone)
		}
	}
	if err := checkZonePartition("data", dataBase, cfg.DataZones, sh.FreeDataZones, liveData); err != nil {
		return err
	}
	if err := checkZonePartition("index", idxBase, idxZones, sh.FreeIndexZones, liveIdx); err != nil {
		return err
	}
	c.freeDataZones, c.freeIndexZones = sh.FreeDataZones, sh.FreeIndexZones

	// Device write-pointer cross-check: free zones are erased, live zones
	// written to completion. The generation stamp already vouches for this;
	// a mismatch means the snapshot lies about the device, which is staleness
	// however it came about.
	for _, z := range sh.FreeDataZones {
		if wp := c.dev.ZoneWP(z); wp != 0 {
			return staleErr("free data zone %d has write pointer %d", z, wp)
		}
	}
	for _, z := range sh.FreeIndexZones {
		if wp := c.dev.ZoneWP(z); wp != 0 {
			return staleErr("free index zone %d has write pointer %d", z, wp)
		}
	}
	for _, z := range append(append([]int(nil), liveData...), liveIdx...) {
		if wp := c.dev.ZoneWP(z); wp != ppz {
			return staleErr("live zone %d has write pointer %d, want %d", z, wp, ppz)
		}
	}

	// PBFG index cache: the queue lists the cached pages oldest first, and
	// each page is re-read from the (validated identical) index zone into
	// the fetch scratch and cached the way a miss caches it, so the snapshot
	// never stores index bytes it would then have to trust.
	ic := c.icache
	ic.lookups, ic.misses = sh.ICLookups, sh.ICMisses
	if len(sh.ICQueue) > ic.capacity {
		return cfgErr("%d cached PBFG pages exceed capacity %d", len(sh.ICQueue), ic.capacity)
	}
	for _, ref := range sh.ICQueue {
		g := groupAt(c.groups, ref.Group)
		switch {
		case g == nil || !g.sealed:
			return cfgErr("cached PBFG page (%d,%d) names no sealed group", ref.Group, ref.Set)
		case ref.Set < 0 || ref.Set >= c.setsPerSG:
			return cfgErr("cached PBFG page set offset %d out of range", ref.Set)
		case g.cached[ref.Set] >= 0:
			return cfgErr("index-cache queue names (%d,%d) twice", ref.Group, ref.Set)
		}
		if _, err := c.dev.ReadPage(c.dev.PageAddr(g.zone, ref.Set), c.fetchBuf); err != nil {
			return fmt.Errorf("core: re-reading PBFG page (%d,%d): %w", ref.Group, ref.Set, err)
		}
		ic.put(c.groups, g, ref.Set, c.fetchBuf)
	}
	return nil
}

// checkZonePartition verifies free ∪ live == [base, base+n) with no overlap.
func checkZonePartition(kind string, base, n int, free, live []int) error {
	seen := make([]bool, n)
	claim := func(z int) error {
		if z < base || z >= base+n {
			return cfgErr("%s zone %d outside [%d,%d)", kind, z, base, base+n)
		}
		if seen[z-base] {
			return cfgErr("%s zone %d claimed twice", kind, z)
		}
		seen[z-base] = true
		return nil
	}
	for _, z := range free {
		if err := claim(z); err != nil {
			return err
		}
	}
	for _, z := range live {
		if err := claim(z); err != nil {
			return err
		}
	}
	if len(free)+len(live) != n {
		return cfgErr("%s zones: %d free + %d live does not cover %d", kind, len(free), len(live), n)
	}
	return nil
}

// Counter conversions between the engine types and the snapshot package's
// dependency-free mirrors. Reflection tests pin the struct pairs
// field-for-field, so a counter added to one side without the other fails
// fast instead of silently dropping data.

func countersOf(s cachelib.Stats) snapshot.Counters {
	return snapshot.Counters{
		Gets: s.Gets, Hits: s.Hits, Sets: s.Sets, Deletes: s.Deletes,
		LogicalBytes: s.LogicalBytes, FlashBytesWritten: s.FlashBytesWritten,
		DeviceBytesWritten: s.DeviceBytesWritten, FlashBytesRead: s.FlashBytesRead,
		FlashReadOps: s.FlashReadOps, ReadErrors: s.ReadErrors,
		WriteErrors: s.WriteErrors, Evictions: s.Evictions,
	}
}

func statsOf(s snapshot.Counters) cachelib.Stats {
	return cachelib.Stats{
		Gets: s.Gets, Hits: s.Hits, Sets: s.Sets, Deletes: s.Deletes,
		LogicalBytes: s.LogicalBytes, FlashBytesWritten: s.FlashBytesWritten,
		DeviceBytesWritten: s.DeviceBytesWritten, FlashBytesRead: s.FlashBytesRead,
		FlashReadOps: s.FlashReadOps, ReadErrors: s.ReadErrors,
		WriteErrors: s.WriteErrors, Evictions: s.Evictions,
	}
}

func extraOf(n NemoStats) snapshot.Extra {
	return snapshot.Extra{
		SGsFlushed: n.SGsFlushed, FillSum: n.FillSum,
		NewBytes: n.NewBytes, NewObjs: n.NewObjs, WriteBackBytes: n.WriteBackBytes,
		WriteBackObjs: n.WriteBackObjs, Sacrificed: n.Sacrificed,
		DataBytesWritten: n.DataBytesWritten, IndexBytesWritten: n.IndexBytesWritten,
		FalsePositiveReads: n.FalsePositiveReads, CoolingRuns: n.CoolingRuns,
	}
}

func nemoStatsOf(e snapshot.Extra) NemoStats {
	return NemoStats{
		SGsFlushed: e.SGsFlushed, FillSum: e.FillSum,
		NewBytes: e.NewBytes, NewObjs: e.NewObjs, WriteBackBytes: e.WriteBackBytes,
		WriteBackObjs: e.WriteBackObjs, Sacrificed: e.Sacrificed,
		DataBytesWritten: e.DataBytesWritten, IndexBytesWritten: e.IndexBytesWritten,
		FalsePositiveReads: e.FalsePositiveReads, CoolingRuns: e.CoolingRuns,
	}
}

// RestoreOutcome reports what happened to Config.SnapshotPath at NewSharded
// time: restored is true after a successful warm restore; err holds the
// typed reason a snapshot was refused (nil when none existed — a plain cold
// start). A refused snapshot never fails NewSharded; the engine just starts
// cold. Restore is all-or-nothing across shards: after one shard's defect
// NewSharded rebuilds every shard cold, those already filled included.
func (s *Sharded) RestoreOutcome() (restored bool, err error) {
	return s.restored, s.restoreErr
}
