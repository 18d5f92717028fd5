package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/devtest"
	"nemo/internal/snapshot"
)

// Warm-restart test geometry: small zones so a short trace seals groups,
// cycles the pool, and populates every structure a snapshot must carry.
const (
	snapPerShardData = 8
	snapShards       = 2
)

func snapGeometry(shards int) device.Geometry {
	perIdx := IndexZonesFor(snapPerShardData, 4)
	return device.Geometry{PageSize: 512, PagesPerZone: 16, Zones: shards * (snapPerShardData + perIdx)}
}

func snapConfig(dev device.Device, shards, flushers int, path string) Config {
	cfg := DefaultConfig(dev, shards*snapPerShardData)
	cfg.Shards = shards
	cfg.SGsPerIndexGroup = 4
	cfg.FlushThreshold = 8
	cfg.Flushers = flushers
	cfg.SnapshotPath = path
	return cfg
}

// snapOp is one request of the deterministic mixed trace.
type snapOp struct {
	kind byte // 'g', 's', 'd'
	key  int
}

func snapTrace(n int) []snapOp {
	rng := rand.New(rand.NewSource(42))
	ops := make([]snapOp, n)
	for i := range ops {
		r, k := rng.Intn(100), rng.Intn(1500)
		switch {
		case r < 55:
			ops[i] = snapOp{'g', k}
		case r < 95:
			ops[i] = snapOp{'s', k}
		default:
			ops[i] = snapOp{'d', k}
		}
	}
	return ops
}

func applySnapTrace(t *testing.T, cache *Sharded, ops []snapOp, async bool) {
	t.Helper()
	for _, op := range ops {
		k, v := kv(op.key)
		var err error
		switch op.kind {
		case 'g':
			cache.Get(k)
		case 's':
			if async {
				err = cache.SetAsync(k, v)
			} else {
				err = cache.Set(k, v)
			}
		case 'd':
			err = cache.Delete(k)
		}
		if err != nil {
			t.Fatalf("trace op %c key %d: %v", op.kind, op.key, err)
		}
	}
}

// typedSnapshotErr reports whether err is one of the snapshot package's
// sentinels — the only refusals the restore path is allowed to produce.
func typedSnapshotErr(err error) bool {
	for _, s := range []error{
		snapshot.ErrTruncated, snapshot.ErrMagic, snapshot.ErrVersion,
		snapshot.ErrChecksum, snapshot.ErrCorrupt, snapshot.ErrGeometry,
		snapshot.ErrStale, snapshot.ErrConfig,
	} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// TestCheckpointRestoreByteIdentical is the strongest round-trip pin:
// checkpoint a populated cache, warm-restore a second cache from it on the
// same device, checkpoint that — the two snapshot files must be
// byte-identical, so restore reconstructed every field the snapshot
// carries, exactly.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		dev := b.New(t, snapGeometry(snapShards))
		dir := t.TempDir()
		p1, p2 := filepath.Join(dir, "s1"), filepath.Join(dir, "s2")

		cold, err := NewSharded(snapConfig(dev, snapShards, 0, ""))
		if err != nil {
			t.Fatal(err)
		}
		applySnapTrace(t, cold, snapTrace(25000), false)
		if err := cold.Checkpoint(p1); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}

		warm, err := NewSharded(snapConfig(dev, snapShards, 0, p1))
		if err != nil {
			t.Fatal(err)
		}
		restored, rerr := warm.RestoreOutcome()
		if !restored {
			t.Fatalf("restore refused: %v", rerr)
		}
		if err := warm.Checkpoint(p2); err != nil {
			t.Fatalf("re-checkpoint: %v", err)
		}

		b1, _ := os.ReadFile(p1)
		b2, _ := os.ReadFile(p2)
		if len(b1) == 0 || !bytes.Equal(b1, b2) {
			t.Fatalf("re-checkpoint differs from original (%d vs %d bytes)", len(b1), len(b2))
		}
	})
}

// TestKillRestoreExactStats is the kill-and-restore pin: a serial
// deterministic trace interrupted by checkpoint-close-reopen halfway must
// end with counters identical, stat for stat, to an uninterrupted run on
// both backends.
func TestKillRestoreExactStats(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		ops := snapTrace(25000)

		control, err := NewSharded(snapConfig(b.New(t, snapGeometry(snapShards)), snapShards, 0, ""))
		if err != nil {
			t.Fatal(err)
		}
		applySnapTrace(t, control, ops, false)
		wantStats, wantExtra := control.Stats(), control.Readout().NemoStats

		dev := b.New(t, snapGeometry(snapShards))
		path := filepath.Join(t.TempDir(), "kill.snap")
		cfg := snapConfig(dev, snapShards, 0, path)
		first, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applySnapTrace(t, first, ops[:len(ops)/2], false)
		if err := first.Close(); err != nil { // checkpoints to path
			t.Fatalf("close: %v", err)
		}
		second, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if restored, rerr := second.RestoreOutcome(); !restored {
			t.Fatalf("restore refused: %v", rerr)
		}
		applySnapTrace(t, second, ops[len(ops)/2:], false)

		if got := second.Stats(); got != wantStats {
			t.Errorf("stats diverged after kill-and-restore:\n got %+v\nwant %+v", got, wantStats)
		}
		if got := second.Readout().NemoStats; got != wantExtra {
			t.Errorf("extra stats diverged after kill-and-restore:\n got %+v\nwant %+v", got, wantExtra)
		}
	})
}

// TestKillRestoreAsyncHitRatio is the concurrent variant: with a background
// flusher pool the flush interleavings are not deterministic, so the pin is
// a hit-ratio window rather than exact counters.
func TestKillRestoreAsyncHitRatio(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		ops := snapTrace(25000)
		hit := func(st cachelib.Stats) float64 {
			if st.Gets == 0 {
				return 0
			}
			return float64(st.Hits) / float64(st.Gets)
		}

		control, err := NewSharded(snapConfig(b.New(t, snapGeometry(snapShards)), snapShards, 2, ""))
		if err != nil {
			t.Fatal(err)
		}
		applySnapTrace(t, control, ops, true)
		if err := control.Drain(); err != nil {
			t.Fatal(err)
		}
		want := hit(control.Stats())
		if err := control.Close(); err != nil {
			t.Fatal(err)
		}

		dev := b.New(t, snapGeometry(snapShards))
		path := filepath.Join(t.TempDir(), "kill.snap")
		cfg := snapConfig(dev, snapShards, 2, path)
		first, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applySnapTrace(t, first, ops[:len(ops)/2], true)
		if err := first.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		second, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if restored, rerr := second.RestoreOutcome(); !restored {
			t.Fatalf("restore refused: %v", rerr)
		}
		applySnapTrace(t, second, ops[len(ops)/2:], true)
		if err := second.Drain(); err != nil {
			t.Fatal(err)
		}
		got := hit(second.Stats())
		if err := second.Close(); err != nil {
			t.Fatal(err)
		}
		if diff := got - want; diff < -0.02 || diff > 0.02 {
			t.Fatalf("hit ratio %.4f after kill-and-restore, %.4f uninterrupted (ε=0.02)", got, want)
		}
	})
}

// TestUnshardedCheckpointRestore covers the Shards: 0 facade, which
// NewSharded builds as one shard: restore on Close-checkpoint with live
// in-memory objects.
func TestUnshardedCheckpointRestore(t *testing.T) {
	dev := devtest.Backends()[0].New(t, snapGeometry(1))
	path := filepath.Join(t.TempDir(), "one.snap")
	cfg := snapConfig(dev, 1, 0, path)
	cfg.Shards = 0

	c, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, v := kv(7)
	if err := c.Set(k, v); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored, rerr := c2.RestoreOutcome(); !restored {
		t.Fatalf("restore refused: %v", rerr)
	}
	got, ok := c2.Get(k)
	if !ok || !bytes.Equal(got, v) {
		t.Fatalf("buffered object lost across restart: ok=%v", ok)
	}
	if st := c2.Stats(); st.Sets != 1 {
		t.Fatalf("stats not restored: %+v", st)
	}
}

// TestRestoreIndexCacheRows mutates the group list and the index-cache
// section of a valid checkpoint, saves it, and restores it. Restore
// computes group ids from NextGroup and resolves them by offset into the
// group list, so every crafted row must be refused with ErrConfig, never an
// out-of-range index: a next group id below the group count, a queue entry
// for an unknown, retired or unsealed group, a set offset out of range, a
// page queued twice, a queue longer than the cache, and a group or SG zone
// below -1. A queue entry for a sealed page the engine had not cached is
// just another cached page: it restores, re-read from flash.
func TestRestoreIndexCacheRows(t *testing.T) {
	dev := devtest.Backends()[0].New(t, snapGeometry(1))
	dir := t.TempDir()
	valid := filepath.Join(dir, "valid.snap")
	c, err := NewSharded(snapConfig(dev, 1, 0, ""))
	if err != nil {
		t.Fatal(err)
	}
	applySnapTrace(t, c, snapTrace(25000), false)
	if err := c.Checkpoint(valid); err != nil {
		t.Fatal(err)
	}
	setsPerSG, capacity := c.shards[0].setsPerSG, c.shards[0].icache.capacity
	f, err := snapshot.Load(valid)
	if err != nil {
		t.Fatal(err)
	}
	sh := &f.Shards[0]
	firstGroup := sh.NextGroup - len(sh.Groups)
	if len(sh.Groups) < 2 || len(sh.ICQueue) == 0 || firstGroup < 1 || sh.Groups[len(sh.Groups)-1].Zone != -1 {
		t.Fatalf("checkpoint too thin for the table: %d groups from id %d, %d cached pages",
			len(sh.Groups), firstGroup, len(sh.ICQueue))
	}
	// uncachedRef is a sealed group's set with no cached page.
	uncachedRef := func(sh *snapshot.Shard) snapshot.PBFGRef {
		for gi, g := range sh.Groups {
			for o := 0; g.Zone >= 0 && o < setsPerSG; o++ {
				if ref := (snapshot.PBFGRef{Group: firstGroup + gi, Set: o}); !slices.Contains(sh.ICQueue, ref) {
					return ref
				}
			}
		}
		t.Fatal("every sealed set is cached")
		return snapshot.PBFGRef{}
	}
	// liveSG is the first member still holding its zone.
	liveSG := func(sh *snapshot.Shard) *snapshot.SG {
		for gi := range sh.Groups {
			for mi := range sh.Groups[gi].Members {
				if m := &sh.Groups[gi].Members[mi]; m.Zone >= 0 {
					return m
				}
			}
		}
		t.Fatal("no live SG")
		return nil
	}
	last := func(sh *snapshot.Shard) *snapshot.PBFGRef { return &sh.ICQueue[len(sh.ICQueue)-1] }

	rows := []struct {
		name   string
		mutate func(sh *snapshot.Shard)
		want   string // "" = must restore
	}{
		{"next group id below the group count", func(sh *snapshot.Shard) {
			sh.NextGroup = len(sh.Groups) - 1
		}, "below the"},
		{"queue entry for an unknown group", func(sh *snapshot.Shard) {
			last(sh).Group = sh.NextGroup + 7
		}, "names no sealed group"},
		{"retired group's queue entries", func(sh *snapshot.Shard) {
			last(sh).Group = firstGroup - 1
		}, "names no sealed group"},
		{"queue entry for the unsealed group", func(sh *snapshot.Shard) {
			last(sh).Group = sh.NextGroup - 1
		}, "names no sealed group"},
		{"duplicate queue entry", func(sh *snapshot.Shard) {
			sh.ICQueue = append(sh.ICQueue[:len(sh.ICQueue)-1], sh.ICQueue[0])
		}, "twice"},
		{"page set out of range", func(sh *snapshot.Shard) {
			last(sh).Set = setsPerSG
		}, "out of range"},
		{"queue set out of range", func(sh *snapshot.Shard) {
			last(sh).Set = -1
		}, "out of range"},
		{"queue longer than capacity", func(sh *snapshot.Shard) {
			for len(sh.ICQueue) <= capacity {
				sh.ICQueue = append(sh.ICQueue, sh.ICQueue[0])
			}
		}, "exceed capacity"},
		{"group zone below -1", func(sh *snapshot.Shard) {
			sh.Groups[0].Zone = -2
		}, "index zone -2"},
		{"SG zone below -1", func(sh *snapshot.Shard) {
			liveSG(sh).Zone = -2
		}, "zone -2"},
		// Version 4's filter widths: a multiple of 64 bits up to the page
		// limit (1024 bits for 4 members of a 512-byte page) while a group
		// has members, 0 while it has none, and an unsealed group's buffers
		// at its width.
		{"filter width not a multiple of 64", func(sh *snapshot.Shard) {
			sh.Groups[0].FilterBits += 32
		}, "-bit filters"},
		{"sealed group without a filter width", func(sh *snapshot.Shard) {
			sh.Groups[0].FilterBits = 0
		}, "-bit filters"},
		{"filter width past the page limit", func(sh *snapshot.Shard) {
			sh.Groups[0].FilterBits = 1024 + 64
		}, "-bit filters"},
		{"memberless group with a filter width", func(sh *snapshot.Shard) {
			g := &sh.Groups[len(sh.Groups)-1]
			g.Members, g.SlotBF = nil, nil
		}, "0 members has"},
		{"unsealed buffers at another width", func(sh *snapshot.Shard) {
			sh.Groups[len(sh.Groups)-1].FilterBits += 64
		}, "filter buffer"},
		// The engine held no page for this entry; in version 3 the queue
		// is the page list, so the entry is one more cached page.
		{"queue entry without a page", func(sh *snapshot.Shard) {
			*last(sh) = uncachedRef(sh)
		}, ""},
	}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f, err := snapshot.Load(valid)
			if err != nil {
				t.Fatal(err)
			}
			row.mutate(&f.Shards[0])
			path := filepath.Join(dir, fmt.Sprintf("row%d.snap", i))
			if err := snapshot.Save(path, f); err != nil {
				t.Fatal(err)
			}
			warm, err := NewSharded(snapConfig(dev, 1, 0, path))
			if err != nil {
				t.Fatal(err)
			}
			restored, rerr := warm.RestoreOutcome()
			if row.want != "" {
				if restored || !errors.Is(rerr, snapshot.ErrConfig) || !strings.Contains(rerr.Error(), row.want) {
					t.Fatalf("restored=%v err=%v, want ErrConfig naming %q", restored, rerr, row.want)
				}
				return
			}
			if !restored {
				t.Fatalf("restore refused: %v", rerr)
			}
			// The entry's page was read back in: re-checkpointing yields the
			// mutated image.
			again := filepath.Join(dir, "again.snap")
			if err := warm.Checkpoint(again); err != nil {
				t.Fatal(err)
			}
			b1, _ := os.ReadFile(path)
			b2, _ := os.ReadFile(again)
			if !bytes.Equal(b1, b2) {
				t.Fatal("re-checkpoint of the restored image differs from the one it restored")
			}
		})
	}
}

// TestRefusalInLaterShardLeavesAllCold pins restore's all-or-nothing across
// shards: a checkpoint whose shard 0 is sound and whose shard 1 claims a
// live SG's zone as free too is refused with an ErrConfig naming shard 1,
// and shard 0, though its own section was valid and restored first, is left
// as cold as shard 1 — no pool, no buffered object, no cached PBFG page, no
// counter.
func TestRefusalInLaterShardLeavesAllCold(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		dev := b.New(t, snapGeometry(snapShards))
		path := filepath.Join(t.TempDir(), "s.snap")
		c, err := NewSharded(snapConfig(dev, snapShards, 0, ""))
		if err != nil {
			t.Fatal(err)
		}
		applySnapTrace(t, c, snapTrace(25000), false)
		if err := c.Checkpoint(path); err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if sh := &f.Shards[0]; len(sh.Groups) == 0 || len(sh.ICQueue) == 0 {
			t.Fatalf("shard 0 checkpoint too thin: %d groups, %d cached pages", len(sh.Groups), len(sh.ICQueue))
		}
		sh := &f.Shards[1]
		live := -1
		for _, g := range sh.Groups {
			for _, m := range g.Members {
				if m.Zone >= 0 {
					live = m.Zone
				}
			}
		}
		if live < 0 {
			t.Fatal("shard 1 has no live SG")
		}
		sh.FreeDataZones = append(sh.FreeDataZones, live)
		if err := snapshot.Save(path, f); err != nil {
			t.Fatal(err)
		}

		warm, err := NewSharded(snapConfig(dev, snapShards, 0, path))
		if err != nil {
			t.Fatal(err)
		}
		restored, rerr := warm.RestoreOutcome()
		if restored || !errors.Is(rerr, snapshot.ErrConfig) || !strings.Contains(rerr.Error(), "shard 1:") {
			t.Fatalf("restored=%v err=%v, want ErrConfig naming shard 1", restored, rerr)
		}
		if st := warm.Stats(); st != (cachelib.Stats{}) {
			t.Fatalf("refused restore left stats: %+v", st)
		}
		for i, c := range warm.shards {
			objs := 0
			for _, m := range c.memq {
				objs += m.objCount()
			}
			if len(c.pool) != 0 || len(c.groups) != 0 || objs != 0 || c.icache.count != 0 || len(c.icache.queue) != c.icache.head {
				t.Fatalf("shard %d not cold: %d pool SGs, %d groups, %d buffered objects, %d cached pages",
					i, len(c.pool), len(c.groups), objs, c.icache.count)
			}
		}
	})
}

// crashFlips are the crash matrix's single-bit flips: byte offset and bit.
// They were drawn once from a seeded RNG over the whole version-3 image and
// are pinned, so a case keeps its name when a format change moves the
// image's length; an offset at or past the current image's end wraps to
// its remainder, still a pinned position in the image. Each flip runs
// twice: at its byte of the current image (bitflip@<offset>), and at the
// same section-relative byte it hit in the version-3 image
// (bitflip@s<i>+<offset>, located through v3Sections and v3Current; wrapped
// likewise within a section that has since shrunk), so the field it hits
// stays put when a format change resizes another section.
var crashFlips = [...]struct {
	pos int
	bit uint
}{
	{31730, 6}, {4825, 7}, {17604, 4}, {6032, 6}, {12112, 4}, {8880, 1},
	{37182, 2}, {3083, 0}, {23272, 6}, {32373, 6}, {19532, 2}, {20255, 7},
	{3693, 5}, {31283, 1}, {33721, 7}, {29024, 5}, {25272, 3}, {22963, 5},
	{2764, 5}, {2248, 0}, {38848, 0}, {29921, 3}, {11057, 0}, {5355, 1},
	{2493, 5}, {5278, 2}, {20292, 2}, {29337, 2}, {19290, 1}, {16168, 7},
	{16221, 6}, {38203, 1}, {38513, 0}, {20152, 1}, {2374, 0}, {14051, 6},
	{25093, 1}, {797, 7}, {15525, 4}, {16525, 2}, {20439, 4}, {21429, 6},
	{18823, 5}, {1236, 4}, {7878, 3}, {18314, 3}, {16187, 1}, {12519, 3},
}

// v3Sections are the section starts (snapshot.SectionOffsets order, 0 being
// the 64-byte header) of the crash matrix's image under NEMO1 version 3.
// They pin the truncation lengths truncate@<length> — a torn write can
// leave any prefix, so these stay cases of their own beside the cuts at the
// section starts (truncate@s<i>); a length at or past the current image's
// end wraps to its remainder — and they place each crashFlip in its
// section.
var v3Sections = [...]int{
	0, 64, 159, 403, 439, 1015, 17615, 18015, 19471, 19715, 19751, 21025,
	37625, 38025, 39561,
}

// v3Current maps each version-3 section (the header, CONFIG, META, FREELISTS,
// GROUPS, MEMQ, ICACHE and FLUSHLOG of each of the two shards, FOOTER) to
// its index among the current image's sections, -1 for none: version 5
// dropped the per-shard flush log. Section-named cases keep the version-3
// numbers, so truncate@s<i> and bitflip@s<i>+<offset> name the same section
// in every version that has it. A boundary outlives its section: for a
// section the image no longer has, truncate@s<i> still cuts where it began,
// after every section that preceded it, which is where the next one begins.
var v3Current = [...]int{0, 1, 2, 3, 4, 5, 6, -1, 7, 8, 9, 10, 11, -1, 12}

// TestSnapshotCrashMatrix is the corruption table: a valid snapshot
// truncated at the start of every section and at the pinned v3Sections
// lengths, bit-flipped at the pinned crashFlips, and mangled in targeted
// ways must always be refused with a typed error — never adopted, never a
// panic — and the engine must serve cold afterwards. Runs against both
// device backends.
func TestSnapshotCrashMatrix(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		dev := b.New(t, snapGeometry(snapShards))
		dir := t.TempDir()
		path := filepath.Join(dir, "valid.snap")
		c, err := NewSharded(snapConfig(dev, snapShards, 0, path))
		if err != nil {
			t.Fatal(err)
		}
		applySnapTrace(t, c, snapTrace(25000), false)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		valid, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Control: the intact snapshot restores on this device.
		ctrl, err := NewSharded(snapConfig(dev, snapShards, 0, path))
		if err != nil {
			t.Fatal(err)
		}
		if restored, rerr := ctrl.RestoreOutcome(); !restored {
			t.Fatalf("control restore refused: %v", rerr)
		}

		type corruption struct {
			name string
			b    []byte
		}
		var cases []corruption
		offs, err := snapshot.SectionOffsets(valid)
		if err != nil {
			t.Fatal(err)
		}
		if want := v3Current[len(v3Current)-1] + 2; len(offs) != want {
			t.Fatalf("%d section boundaries, v3Current expects %d", len(offs), want)
		}
		for i := range v3Current {
			next := slices.IndexFunc(v3Current[i:], func(j int) bool { return j >= 0 })
			cases = append(cases, corruption{fmt.Sprintf("truncate@s%d", i), valid[:offs[v3Current[i+next]]]})
		}
		for _, o := range v3Sections {
			cases = append(cases, corruption{fmt.Sprintf("truncate@%d", o), valid[:o%len(valid)]})
		}
		flip := func(name string, pos int, bit uint) {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= 1 << bit
			cases = append(cases, corruption{name, mut})
		}
		for _, f := range crashFlips {
			flip(fmt.Sprintf("bitflip@%d", f.pos), f.pos%len(valid), f.bit)
			sec, at := slices.BinarySearch(v3Sections[:], f.pos)
			if !at {
				sec--
			}
			j := v3Current[sec]
			if j < 0 {
				continue // the flip hit a section this version does not have
			}
			off := f.pos - v3Sections[sec]
			flip(fmt.Sprintf("bitflip@s%d+%d", sec, off), offs[j]+off%(offs[j+1]-offs[j]), f.bit)
		}
		cases = append(cases,
			corruption{"empty", nil},
			corruption{"bad magic", append([]byte("XXXXXXXX"), valid[8:]...)},
			corruption{"short", valid[:11]},
			corruption{"slack byte", append(append([]byte(nil), valid...), 0)},
		)

		for i, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				p := filepath.Join(dir, fmt.Sprintf("case-%d.snap", i))
				if err := os.WriteFile(p, tc.b, 0o644); err != nil {
					t.Fatal(err)
				}
				cold, err := NewSharded(snapConfig(dev, snapShards, 0, p))
				if err != nil {
					t.Fatalf("New must not fail on a bad snapshot: %v", err)
				}
				restored, rerr := cold.RestoreOutcome()
				if restored {
					t.Fatal("corrupt snapshot was adopted")
				}
				if rerr == nil || !typedSnapshotErr(rerr) {
					t.Fatalf("refusal is not a typed snapshot error: %v", rerr)
				}
				// Cold but serving: a buffered set/get round trip (in-memory
				// only — it must not mutate the device other cases restore
				// against) from a zeroed state.
				if st := cold.Stats(); st != (cachelib.Stats{}) {
					t.Fatalf("cold engine carries stats: %+v", st)
				}
				k, v := kv(123456)
				if err := cold.Set(k, v); err != nil {
					t.Fatalf("cold engine cannot serve: %v", err)
				}
				if got, ok := cold.Get(k); !ok || !bytes.Equal(got, v) {
					t.Fatal("cold engine lost a fresh set")
				}
			})
		}

		// After the whole matrix, a cold engine on this (dirty) device must
		// run a full trace — flushes, seals, evictions — without trouble.
		final, err := NewSharded(snapConfig(dev, snapShards, 0, ""))
		if err != nil {
			t.Fatal(err)
		}
		applySnapTrace(t, final, snapTrace(25000), false)
		if st := final.Stats(); st.WriteErrors != 0 || st.ReadErrors != 0 {
			t.Fatalf("cold-format run hit device errors: %+v", st)
		}
	})
}

// restampVersion rewrites a well-formed snapshot image's version word in
// place and re-seals the footer over it (the CRC32 of every preceding byte,
// then that payload's section CRC).
func restampVersion(blob []byte, v uint32) {
	body, footer := blob[:len(blob)-16], blob[len(blob)-16:]
	binary.LittleEndian.PutUint32(body[8:], v)
	binary.LittleEndian.PutUint32(footer[12:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(footer[8:], crc32.ChecksumIEEE(footer[12:]))
}

// TestOldVersionSnapshotsColdStart pins the format bumps: a version-1
// checkpoint's sealed groups point at filter-major PBFG pages this build
// would misread as bit-sliced, a version-2 checkpoint lays out fields
// version 3 dropped, a version-3 checkpoint names no filter width and
// describes pages probed at positions this build does not test, and a
// version-4 checkpoint carries a flush log and fields version 5 dropped and
// lacks the new-object counter. Any of them, otherwise intact — right
// device, right generation, every CRC good — is refused with ErrVersion and
// the cache starts cold.
func TestOldVersionSnapshotsColdStart(t *testing.T) {
	dev := devtest.Backends()[0].New(t, snapGeometry(snapShards))
	path := filepath.Join(t.TempDir(), "old.snap")
	c, err := NewSharded(snapConfig(dev, snapShards, 0, path))
	if err != nil {
		t.Fatal(err)
	}
	applySnapTrace(t, c, snapTrace(25000), false)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restampVersion(blob, snapshot.Version)
	if _, err := snapshot.Decode(blob); err != nil {
		t.Fatalf("restamping the current version broke the image: %v", err)
	}
	for _, v := range []uint32{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("version %d", v), func(t *testing.T) {
			restampVersion(blob, v)
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			cold, err := NewSharded(snapConfig(dev, snapShards, 0, path))
			if err != nil {
				t.Fatal(err)
			}
			if restored, rerr := cold.RestoreOutcome(); restored || !errors.Is(rerr, snapshot.ErrVersion) {
				t.Fatalf("restored=%v err=%v, want a cold start with ErrVersion", restored, rerr)
			}
			if st := cold.Stats(); st != (cachelib.Stats{}) {
				t.Fatalf("cold engine carries stats: %+v", st)
			}
		})
	}
}

// TestStaleSnapshotRejected pins the generation-stamp wall: any device
// mutation after checkpoint — appends from continued traffic, a zone reset,
// a different device of the same shape — invalidates the snapshot with
// ErrStale; a different geometry reports ErrGeometry; a different engine
// configuration reports ErrConfig.
func TestStaleSnapshotRejected(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		dev := b.New(t, snapGeometry(snapShards))
		dir := t.TempDir()
		path := filepath.Join(dir, "s.snap")
		cfg := snapConfig(dev, snapShards, 0, path)

		c, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applySnapTrace(t, c, snapTrace(25000), false)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		expectRefusal := func(t *testing.T, cfg Config, want error) {
			t.Helper()
			c, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			restored, rerr := c.RestoreOutcome()
			if restored {
				t.Fatal("snapshot adopted despite mismatch")
			}
			if !errors.Is(rerr, want) {
				t.Fatalf("got %v, want %v", rerr, want)
			}
		}

		t.Run("config mismatch", func(t *testing.T) {
			bad := cfg
			bad.FlushThreshold++
			expectRefusal(t, bad, snapshot.ErrConfig)
		})
		t.Run("shard count mismatch", func(t *testing.T) {
			bad := snapConfig(dev, 1, 0, path)
			bad.DataZones = snapShards * snapPerShardData // keep capacity, change partitioning
			expectRefusal(t, bad, snapshot.ErrConfig)
		})
		t.Run("different device same shape", func(t *testing.T) {
			other := b.New(t, snapGeometry(snapShards))
			expectRefusal(t, snapConfig(other, snapShards, 0, path), snapshot.ErrStale)
		})
		t.Run("geometry mismatch", func(t *testing.T) {
			g := snapGeometry(snapShards)
			g.Zones += 2
			other := b.New(t, g)
			expectRefusal(t, snapConfig(other, snapShards, 0, path), snapshot.ErrGeometry)
		})
		t.Run("zone reset after checkpoint", func(t *testing.T) {
			// Find a written zone and reset it: Writes bumps, Boot stays.
			for z := 0; z < dev.Zones(); z++ {
				if dev.ZoneWP(z) == dev.PagesPerZone() {
					if _, err := dev.ResetZone(z); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			expectRefusal(t, cfg, snapshot.ErrStale)
		})
		t.Run("appends after checkpoint", func(t *testing.T) {
			// The reset above already staled the snapshot; re-checkpoint a
			// cold engine, copy the snapshot aside, keep writing, and the
			// copy must be refused.
			c, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			applySnapTrace(t, c, snapTrace(12000), false)
			if err := c.Checkpoint(path); err != nil {
				t.Fatal(err)
			}
			frozen := filepath.Join(dir, "frozen.snap")
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(frozen, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			applySnapTrace(t, c, snapTrace(25000)[12000:], false)
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			expectRefusal(t, snapConfig(dev, snapShards, 0, frozen), snapshot.ErrStale)
		})
	})
}

// Reflection parity pins: the snapshot package's dependency-free mirror
// structs must track the engine types field-for-field, so a counter added
// on one side without the other fails here instead of silently dropping
// state across restarts.

func fieldSig(t reflect.Type, skip map[string]bool) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if skip[f.Name] {
			continue
		}
		out = append(out, f.Name+" "+f.Type.String())
	}
	return out
}

func TestSnapshotMirrorsEngineTypes(t *testing.T) {
	cases := []struct {
		name       string
		core, snap reflect.Type
		skip       map[string]bool
	}{
		// Skipped Config fields are runtime knobs that shape no on-flash
		// layout or checkpointed state: the device handle, the flusher pool,
		// the snapshot path itself, and the breaker/retry health settings.
		{"ConfigStamp", reflect.TypeOf(Config{}), reflect.TypeOf(snapshot.ConfigStamp{}),
			map[string]bool{"Device": true, "Flushers": true, "SnapshotPath": true,
				"BreakerThreshold": true, "BreakerProbeAfter": true,
				"WriteRetries": true, "RetryBackoff": true}},
		// Skipped Stats fields are ephemeral device-health accounting
		// (health.go): a restarted process starts with a closed breaker and
		// zero retry history by design, so they are deliberately not
		// checkpointed.
		{"Counters", reflect.TypeOf(cachelib.Stats{}), reflect.TypeOf(snapshot.Counters{}),
			map[string]bool{"WriteRetries": true, "DegradedRejects": true,
				"DegradedEntered": true, "DegradedSeconds": true, "BreakerOpen": true}},
		{"Extra", reflect.TypeOf(NemoStats{}), reflect.TypeOf(snapshot.Extra{}), nil},
	}
	for _, tc := range cases {
		want := fieldSig(tc.core, tc.skip)
		got := fieldSig(tc.snap, nil)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s does not mirror the engine type:\n engine %v\n mirror %v", tc.name, want, got)
		}
	}
}
