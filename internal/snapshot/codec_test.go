package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"path/filepath"
	"reflect"
	"testing"
)

// sampleFile builds a small but structurally rich snapshot: two shards, a
// sealed and an unsealed group, dead and live SGs, a lazily-absent, a
// present-but-empty and a populated hotness bitmap, and index-cache queue
// entries. Every config and counter field holds a distinct nonzero value, so
// a layout that swaps two of them cannot hide.
func sampleFile() *File {
	return &File{
		PageSize: 512, PagesPerZone: 16, Zones: 24,
		Boot: 7, Writes: 421,
		Config: ConfigStamp{
			DataZones: 8, Shards: 2, FlushThreshold: 7, SGsPerIndexGroup: 4,
			BloomFPR: 0.001, CachedPBFGRatio: 0.5, CoolingWriteRatio: 0.1,
			BufferedSGs: true, DelayedFlush: true, Writeback: true,
		},
		Shards: []Shard{
			{
				NextSGID: 6, NextGroup: 2, SacCount: 3, BytesSinceCool: 999,
				ICLookups: 40, ICMisses: 9,
				Stats: Counters{Gets: 100, Hits: 61, Sets: 50, Deletes: 4,
					LogicalBytes: 12345, FlashBytesWritten: 20480, DeviceBytesWritten: 24576,
					FlashBytesRead: 8192, FlashReadOps: 17, ReadErrors: 2, WriteErrors: 1,
					Evictions: 33},
				Extra: Extra{SGsFlushed: 5, FillSum: 4.25, NewBytes: 4096, NewObjs: 64,
					WriteBackBytes: 960, WriteBackObjs: 12, Sacrificed: 3,
					DataBytesWritten: 16384, IndexBytesWritten: 2048,
					FalsePositiveReads: 7, CoolingRuns: 6},
				FreeDataZones:  []int{3, 2},
				FreeIndexZones: []int{9},
				Groups: []Group{
					{
						Zone: 8, FilterBits: 192,
						Members: []SG{
							{ID: 2, Zone: -1, SetCounts: make([]uint16, 16)},
							{ID: 3, Zone: 1,
								SetCounts: append([]uint16{1, 1}, make([]uint16, 14)...),
								Bits:      []uint64{0b10}},
							{ID: 4, Zone: -1, SetCounts: make([]uint16, 16)},
							{ID: 5, Zone: 0,
								SetCounts: append([]uint16{1}, make([]uint16, 15)...),
								Bits:      []uint64{}},
						},
					},
					{
						Zone: -1, FilterBits: 64,
						Members: []SG{{ID: 5, Zone: 4, SetCounts: make([]uint16, 16)}},
						SlotBF:  [][]byte{bytes.Repeat([]byte{0xAB}, 16*8)},
					},
				},
				MemQ: []MemSG{
					{NewBytes: 80, WBBytes: 48, NewObjs: 2, Sets: [][]byte{make([]byte, 512), make([]byte, 512)}},
					{Sets: [][]byte{make([]byte, 512), make([]byte, 512)}},
				},
				ICQueue: []PBFGRef{{Group: 0, Set: 1}, {Group: 0, Set: 3}},
			},
			{
				NextSGID: 1, NextGroup: 1,
				FreeDataZones:  []int{15, 14, 13, 12},
				FreeIndexZones: []int{21, 20},
				MemQ: []MemSG{
					{Sets: [][]byte{make([]byte, 512), make([]byte, 512)}},
					{Sets: [][]byte{make([]byte, 512), make([]byte, 512)}},
				},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFile()
	b := Encode(f)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("decoded File differs from original:\n got %+v\nwant %+v", got, f)
	}
	if again := Encode(got); !bytes.Equal(again, b) {
		t.Fatalf("encoding is not canonical: re-encode differs at byte %d", firstDiff(b, again))
	}
}

// sampleSHA256 is the SHA-256 of Encode(sampleFile()): it pins the NEMO1
// byte layout field by field, including the rows a round trip cannot see (a
// layout that swaps two fields decodes them swapped back). Re-recorded for
// version 4 (the version-3 pin was cd2c387b…0577): the version word, the
// CONFIG section without its objects-per-set slot, one FilterBits field per
// group (192 and 64 in the sample), and the sample's unsealed filter blob
// grown from 16×4 to 16×8 bytes to match its 64-bit width. Re-recorded for
// version 5 (the version-4 pin was 4a19f13d…8a39): the version word, CONFIG
// without its two ratio slots, META without the dropped-record count and with
// NewObjs (64 in the sample) after NewBytes, no fill per SG, no writeback
// object count per buffered SG, and no flush-log section per shard.
const sampleSHA256 = "055c5b291117d140cceb45a9a7a148e38a0c6ea513b41277f0771e5d7da86b9b"

func TestEncodeLayoutPinned(t *testing.T) {
	sum := sha256.Sum256(Encode(sampleFile()))
	if got := hex.EncodeToString(sum[:]); got != sampleSHA256 {
		t.Fatalf("NEMO1 layout changed:\n got %s\nwant %s", got, sampleSHA256)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// decodeSentinels are the errors Decode is allowed to return; anything else
// (or a panic) breaks the throwaway contract.
var decodeSentinels = []error{ErrTruncated, ErrMagic, ErrVersion, ErrChecksum, ErrCorrupt}

func isTypedDecodeErr(err error) bool {
	for _, s := range decodeSentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// TestDecodeRejectsEveryByteFlip is the exhaustive single-corruption sweep:
// flipping any one byte anywhere in a valid image must yield a typed error —
// every byte is covered by the header checks, a section CRC, or the footer.
func TestDecodeRejectsEveryByteFlip(t *testing.T) {
	b := Encode(sampleFile())
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0xFF
		f, err := Decode(mut)
		if err == nil {
			t.Fatalf("byte %d flipped: Decode accepted the corrupt image (%v)", i, f.Config)
		}
		if !isTypedDecodeErr(err) {
			t.Fatalf("byte %d flipped: untyped error %v", i, err)
		}
	}
}

// TestDecodeRejectsEveryTruncation truncates at every section boundary and
// at a stride of raw offsets; all must fail typed, none may panic.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	b := Encode(sampleFile())
	offs, err := SectionOffsets(b)
	if err != nil {
		t.Fatalf("SectionOffsets: %v", err)
	}
	cuts := append([]int(nil), offs...)
	for o := 0; o < len(b); o += 7 {
		cuts = append(cuts, o)
	}
	for _, o := range cuts {
		if o == len(b) {
			continue
		}
		if _, err := Decode(b[:o]); err == nil {
			t.Fatalf("truncated at %d: Decode accepted", o)
		} else if !isTypedDecodeErr(err) {
			t.Fatalf("truncated at %d: untyped error %v", o, err)
		}
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	valid := Encode(sampleFile())
	mut := func(i int, v byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] = v
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:10], ErrTruncated},
		{"bad magic", mut(0, 'X'), ErrMagic},
		{"bad version", mut(8, 99), ErrVersion},
		{"reserved nonzero", mut(55, 1), ErrCorrupt},
		{"trailing slack", append(append([]byte(nil), valid...), 0), ErrCorrupt},
		{"payload flip", mut(headerSize+sectionHdrSize+2, 0xEE), ErrChecksum},
		{"truncated mid-section", valid[:len(valid)-3], ErrTruncated},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestSectionOffsets(t *testing.T) {
	f := sampleFile()
	b := Encode(f)
	offs, err := SectionOffsets(b)
	if err != nil {
		t.Fatalf("SectionOffsets: %v", err)
	}
	// 0, header end, then one boundary per section: CONFIG + 5 per shard +
	// FOOTER.
	wantLen := 2 + 1 + 5*len(f.Shards) + 1
	if len(offs) != wantLen {
		t.Fatalf("got %d offsets, want %d", len(offs), wantLen)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Fatalf("offsets not strictly increasing at %d: %v", i, offs)
		}
	}
	if offs[len(offs)-1] != len(b) {
		t.Fatalf("last offset %d != image length %d", offs[len(offs)-1], len(b))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nemo.snap")
	f := sampleFile()
	if err := Save(path, f); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatal("loaded File differs from saved")
	}
	// Save must be a full rewrite: a second Save over the first succeeds and
	// leaves exactly the new content.
	f.Shards[0].SacCount = 99
	if err := Save(path, f); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatalf("re-Load: %v", err)
	}
	if got.Shards[0].SacCount != 99 {
		t.Fatal("re-Save did not replace the snapshot")
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.snap"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want fs.ErrNotExist", err)
	}
	if isTypedDecodeErr(err) {
		t.Fatal("a missing file must not look like a corrupt snapshot")
	}
}
