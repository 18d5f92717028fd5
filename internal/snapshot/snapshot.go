// Package snapshot defines the NEMO1 warm-restart checkpoint: an index-only,
// mmap-friendly image of the per-shard Set-Group metadata — the flashSG
// directory, unsealed Bloom filters, PBFG index-cache contents, zone
// free-list order, epoch counters, and the buffered in-memory SGs — that
// lets a cleanly restarted engine adopt its on-flash state without replaying
// anything. The format follows the FMC1 school of crash-safe metadata:
// magic + version header, fixed-layout little-endian sections each guarded
// by its own CRC, a whole-file CRC footer, single-writer full rewrite, and
// strictly throwaway semantics — a snapshot that fails any validation step
// is worth nothing, the engine cold-formats, and no partial content is ever
// trusted.
//
// # Layout
//
// A snapshot is one contiguous byte image:
//
//	header (64 bytes)
//	  magic "NEMO1\x00\x00\x00"          [8]
//	  version                      u32  (currently 5)
//	  pageSize, pagesPerZone, zones u32 ×3 (device geometry)
//	  boot, writes                 u64  ×2 (device.Generation stamp)
//	  shardCount                   u32
//	  totalLen                     u64  (whole-image length, header included)
//	  reserved                     zeros to byte 64
//	section × (1 + 5·shardCount + 1)
//	  kind u32 | len u32 | crc32(payload) u32 | payload
//
// Sections appear in a fixed order — CONFIG once, then META, FREELISTS,
// GROUPS, MEMQ, ICACHE for each shard in shard order, then a FOOTER whose
// 4-byte payload is the CRC32 of every preceding byte. The kinds number
// 1 to 6 in that order and the footer is kind 8: 7 was the per-shard flush
// log, which version 5 dropped. All integers are little-endian; signed
// values are two's-complement 64-bit, floats are IEEE-754 bit patterns,
// booleans are a single 0/1 byte. Each section's payload layout is written
// down once, as one walk over its fields that Encode and Decode share, so
// the two directions cannot drift.
//
// Decoding is canonical: every accepted byte image re-encodes to exactly
// itself (the fuzz corpus pins Encode(Decode(b)) == b), which rules out
// slack bytes, over-long sections, non-binary booleans, and any other
// ambiguity an attacker or a torn write could hide in.
//
// Each fact is stated once. A group's id follows from its position and the
// shard's next group id, its sealing from its index zone, its live members
// from theirs; an SG's slot is its position and its object count the sum of
// its set counts; the index-cache queue is the list of cached pages. Restore
// computes what the image leaves out.
//
// Version 5's GROUPS section is, per shard, a count and then per group: its
// index zone (i64, -1 while unsealed), its filter width in bits (i64, a
// multiple of 64; 0 while it has no member), its members (count, then per SG
// id u64, data zone i64 (-1 once evicted), set counts u16 each and an
// optional hotness bitmap) and, while unsealed, one blob per member of its
// filters serialized by set offset. The width is stated rather than derived
// from the first member's set counts: the group's pages on flash were built
// at that width, and a restore must read them at it whatever the sizing
// rule of the build that restores.
//
// # Versions
//
// Only the current version is read; an older image is refused with
// ErrVersion and the engine starts cold. Version 1 describes PBFG pages in
// the filter-major arrangement this build would misread as bit-sliced.
// Version 2 carries the same device state as version 3 but states facts
// twice — one-element zone lists, three config slots core no longer has, a
// second list of the cached pages, a retired-group watermark, and group and
// SG fields that follow from the fields next to them. Version 3 has no
// filter width: every group's filters were sized by a config slot for a
// fixed objects-per-set target, and its PBFG pages on flash were probed at
// (h1 + i·h2) mod m, so this build, which probes by enhanced double hashing
// (internal/bloom), would test other bits of them and miss keys they hold.
// Version 4 describes the same device state as version 5 but carries state
// nothing reads: a per-shard flush log (section 7), each SG's fill rate,
// each buffered SG's writeback object count, a dropped-flush-record counter
// and two config slots core no longer has. It lacks the new-object counter
// (Extra.NewObjs), so a restore from it could not continue that count; it
// is refused rather than restored with the counter reset.
//
// # Validation and trust
//
// Decode validates structure only (magic, version, framing, CRCs, canonical
// encoding) and returns typed errors — ErrTruncated, ErrMagic, ErrVersion,
// ErrChecksum, ErrCorrupt — for every defect. Semantic validation against a
// live device and configuration (geometry match, generation-stamp equality,
// zone-partition and write-pointer cross-checks) happens in internal/core's
// restore path, which reports ErrGeometry, ErrStale, or ErrConfig. Either
// way the failure mode is identical: the engine ignores the snapshot and
// cold-formats. Snapshots carry no cache data — object bytes live on flash —
// so losing one costs a cold start, never correctness.
package snapshot

// File is the in-memory form of one NEMO1 snapshot: the device identity it
// was taken against and every shard's metadata.
type File struct {
	// Device geometry at checkpoint time. Restore requires an exact match.
	PageSize     int
	PagesPerZone int
	Zones        int

	// Generation stamp (device.Generation) sampled after the checkpointed
	// state was captured. Restore requires exact equality with the live
	// device — any append or reset in between invalidates the snapshot.
	Boot   uint64
	Writes uint64

	// Config is the engine configuration stamp; restore requires an exact
	// match so the snapshot's zone layout and sizing are known-compatible.
	Config ConfigStamp

	// Shards holds one entry per engine shard, in shard order.
	Shards []Shard
}

// ConfigStamp mirrors core.Config minus the runtime-only fields (Device,
// Flushers, SnapshotPath and the device-health knobs): everything that
// shapes the on-flash layout or the meaning of the checkpointed state. A
// reflection test in core pins the two structs field-for-field.
type ConfigStamp struct {
	DataZones         int
	Shards            int
	FlushThreshold    int
	SGsPerIndexGroup  int
	BloomFPR          float64
	CachedPBFGRatio   float64
	CoolingWriteRatio float64
	BufferedSGs       bool
	DelayedFlush      bool
	Writeback         bool
}

// Shard is one engine shard's complete metadata: epoch counters, statistics,
// free lists, the index-group/SG directory, buffered in-memory SGs, and the
// PBFG index-cache state.
type Shard struct {
	NextSGID       uint64
	NextGroup      int
	SacCount       int
	BytesSinceCool uint64

	// Index-cache counters.
	ICLookups uint64
	ICMisses  uint64

	Stats Counters
	Extra Extra

	// Free lists in pop order (last element pops first).
	FreeDataZones  []int
	FreeIndexZones []int

	// Groups in creation order, the newest NextGroup-1: group i's id is
	// NextGroup-len(Groups)+i. The live SG pool is derived from them (live
	// members in traversal order), so it is not stored separately.
	Groups []Group

	// MemQ is the buffered in-memory SG queue, front first, each set
	// serialized as its full page image. Keeping the buffers in the
	// snapshot is a deliberate, bounded (core.Config.MemSGs × SG bytes per
	// shard) deviation from a purely index-only checkpoint: flushing them at
	// checkpoint time would perturb every write-side statistic, and the
	// warm-restart contract is that a checkpointed-and-restored run is
	// stat-for-stat identical to an uninterrupted one.
	MemQ []MemSG

	// ICQueue is the PBFG index-cache FIFO from oldest to newest, one entry
	// per cached page (the page bytes are re-read from flash on restore, so
	// the snapshot stays index-only).
	ICQueue []PBFGRef
}

// Group mirrors core's idxGroup: one PBFG index group and its member SGs in
// slot order. Sealing, the live count and the live mask follow from Zone and
// the members.
type Group struct {
	// Zone is the sealed group's index zone; -1 while unsealed.
	Zone int
	// FilterBits is the width of every member's set filters, a multiple of
	// 64; 0 while the group has no member.
	FilterBits int
	Members    []SG
	// SlotBF holds the unsealed group's in-memory Bloom filters, one slice
	// per member (setsPerSG filters concatenated); nil once sealed.
	SlotBF [][]byte
}

// SG mirrors core's flashSG: one immutable on-flash Set-Group. Its slot is
// its position in the group and its object count the sum of SetCounts.
type SG struct {
	ID uint64
	// Zone is the SG's data zone; -1 once evicted (the zone is reset and
	// back on the free list).
	Zone      int
	SetCounts []uint16
	// Bits is the 1-bit hotness bitmap; nil when never allocated (the
	// distinction matters — core allocates it lazily).
	Bits []uint64
}

// MemSG is one buffered in-memory SG: accounting plus every set's page
// image (setblock serialization, zero-padded to the page size).
type MemSG struct {
	NewBytes uint64
	WBBytes  uint64
	NewObjs  int
	Sets     [][]byte
}

// PBFGRef names one PBFG page: set offset Set of index group Group.
type PBFGRef struct {
	Group int
	Set   int
}

// Counters mirrors cachelib.Stats field-for-field (pinned by a reflection
// test in core) without importing it, keeping this package dependency-free.
type Counters struct {
	Gets               uint64
	Hits               uint64
	Sets               uint64
	Deletes            uint64
	LogicalBytes       uint64
	FlashBytesWritten  uint64
	DeviceBytesWritten uint64
	FlashBytesRead     uint64
	FlashReadOps       uint64
	ReadErrors         uint64
	WriteErrors        uint64
	Evictions          uint64
}

// Extra mirrors core.NemoStats field-for-field (same reflection pin).
type Extra struct {
	SGsFlushed         uint64
	FillSum            float64
	NewBytes           uint64
	NewObjs            uint64
	WriteBackBytes     uint64
	WriteBackObjs      uint64
	Sacrificed         uint64
	DataBytesWritten   uint64
	IndexBytesWritten  uint64
	FalsePositiveReads uint64
	CoolingRuns        uint64
}
