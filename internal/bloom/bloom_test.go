package bloom

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nemo/internal/hashing"
)

func TestSizeBitsMatchesPaper(t *testing.T) {
	// §5.1: 0.1% FPR ⇒ 14.4 bits/obj; 40 objects ⇒ 576 bits = 72 bytes.
	bits := SizeBits(40, 0.001)
	if bits != 576 {
		t.Fatalf("SizeBits(40, 0.001) = %d, want 576", bits)
	}
	if got := BitsPerObject(0.001); math.Abs(got-14.4) > 0.05 {
		t.Fatalf("BitsPerObject(0.001) = %v, want ≈14.4", got)
	}
	// 1% FPR ⇒ ≈9.6 bits/obj (§4.1).
	if got := BitsPerObject(0.01); math.Abs(got-9.585) > 0.05 {
		t.Fatalf("BitsPerObject(0.01) = %v, want ≈9.6", got)
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f := New(40, 0.001)
	fps := make([]uint64, 40)
	for i := range fps {
		fps[i] = hashing.SplitMix64(uint64(i) + 1)
		f.Add(fps[i])
	}
	for _, fp := range fps {
		if !f.Test(fp) {
			t.Fatalf("false negative for %x", fp)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(40, 0.001)
	for i := 0; i < 40; i++ {
		f.Add(hashing.SplitMix64(uint64(i) + 1))
	}
	trials := 200000
	falsePos := 0
	for i := 0; i < trials; i++ {
		if f.Test(hashing.SplitMix64(uint64(i) + 1000000)) {
			falsePos++
		}
	}
	rate := float64(falsePos) / float64(trials)
	if rate > 0.003 {
		t.Fatalf("false-positive rate %v far above configured 0.001", rate)
	}
}

// TestSerializeRoundTrip follows a filter down the path the index takes:
// AppendBytes, MergeColumn into a (one-member) bit-sliced page, GroupMask.
// TestFPRAtEveryWidth holds the realized false-positive rate at the sized
// rate for every filter width the sizing rule SizeBits(n, 0.001) yields up to
// 1024 bits, each width holding the largest count it was sized for — the
// least slack the rule leaves: 600 filters of fresh fingerprints, 2000
// absent probes each. At the widths the rule rounds up least, even ideal
// independent probes sit at the sized rate, so the bound is one-sided at
// 3 standard errors of a 0.001 rate over those 1.2 M probes (1.09e-3). The
// positions (h1 + i·h2) mod m these replaced realized 1.1e-3 to 9.1e-3 at
// these widths and counts (3.5e-3 at 256 bits), above the limit at most.
func TestFPRAtEveryWidth(t *testing.T) {
	const fpr, filters, probes = 0.001, 600, 2000
	limit := fpr + 3*math.Sqrt(fpr*(1-fpr)/(filters*probes))
	rng := rand.New(rand.NewSource(36))
	k := NumHashes(fpr)
	for n := 1; SizeBits(n, fpr) <= 1024; n++ {
		mbits := SizeBits(n, fpr)
		if SizeBits(n+1, fpr) == mbits {
			continue // not the largest count at this width
		}
		fp := 0
		f := NewBits(mbits, k)
		for i := 0; i < filters; i++ {
			f.Reset()
			for j := 0; j < n; j++ {
				f.Add(rng.Uint64())
			}
			for j := 0; j < probes; j++ {
				if f.Test(rng.Uint64()) {
					fp++
				}
			}
		}
		rate := float64(fp) / (filters * probes)
		t.Logf("%4d bits, %2d objects: FPR %.2e", mbits, n, rate)
		if rate > limit {
			t.Errorf("%d bits holding %d objects: realized FPR %.2e above the sized %v (limit %.3e)", mbits, n, rate, fpr, limit)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	f := New(40, 0.001)
	for i := 0; i < 30; i++ {
		f.Add(hashing.SplitMix64(uint64(i) * 3))
	}
	raw := f.AppendBytes(nil)
	mbits := SizeBits(40, 0.001)
	if len(raw) != mbits/8 {
		t.Fatalf("serialized %d bytes, want %d", len(raw), mbits/8)
	}
	page := make([]byte, len(raw))
	MergeColumn(page, 1, 0, raw)
	for i := 0; i < 30; i++ {
		ps := NewProbeSet(hashing.SplitMix64(uint64(i)*3), NumHashes(0.001))
		if GroupMask(page, 1, mbits, ps, 1) != 1 {
			t.Fatalf("serialized filter lost element %d", i)
		}
	}
}

// testRaw is the per-member test the bit-sliced kernel replaced — one
// serialized filter probed bit by bit — kept as the reference GroupMask is
// checked against.
func testRaw(raw []byte, ps *ProbeSet) bool {
	for _, h := range ps.hs {
		if pos := at(h, uint64(len(raw)*8)); raw[pos>>3]&(1<<(pos&7)) == 0 {
			return false
		}
	}
	return true
}

func TestTestRawMatchesFilter(t *testing.T) {
	k := NumHashes(0.001)
	f := func(adds []uint64, probe uint64) bool {
		filt := New(40, 0.001)
		for _, a := range adds {
			filt.Add(a)
		}
		raw := filt.AppendBytes(nil)
		ps := NewProbeSet(probe, k)
		return testRaw(raw, ps) == filt.Test(probe) && ps.TestFilter(filt) == filt.Test(probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// slicedGroup builds m filters of n objects at fpr, each filled with fill[s]
// fingerprints, and returns them serialized both ways: filter-major and as a
// bit-sliced page with slack bytes after the m filters.
func slicedGroup(rng *rand.Rand, m, n int, fpr float64, fill []int, slack int) (raws [][]byte, page []byte, added [][]uint64) {
	page = make([]byte, m*SizeBits(n, fpr)/8+slack)
	for s := 0; s < m; s++ {
		f := New(n, fpr)
		var fps []uint64
		for i := 0; i < fill[s]; i++ {
			fps = append(fps, rng.Uint64())
			f.Add(fps[i])
		}
		raws = append(raws, f.AppendBytes(nil))
		added = append(added, fps)
		MergeColumn(page, m, s, raws[s])
	}
	return raws, page, added
}

// TestGroupMaskMatchesPerMemberLoop property-tests the kernel against the
// loop it replaced over random geometries, fill levels (empty members
// included) and live words, on pages with and without slack after the last
// row — without it the last rows take the zero-extended tail load.
func TestGroupMaskMatchesPerMemberLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		m := []int{1, 2, 3, 4, 7, 50, MaxGroupMembers}[rng.Intn(7)]
		n := []int{1, 5, 40}[rng.Intn(3)]
		fpr := []float64{0.001, 0.01, 0.2}[rng.Intn(3)]
		slack := []int{0, 1, 7, 8, 496}[rng.Intn(5)]
		fill := make([]int, m)
		for s := range fill {
			fill[s] = rng.Intn(3) * rng.Intn(n+1) // a third of the members stay empty
		}
		raws, page, added := slicedGroup(rng, m, n, fpr, fill, slack)
		live := rng.Uint64()
		ps := NewProbeSet(0, NumHashes(fpr))
		for probe := 0; probe < 40; probe++ {
			fp := rng.Uint64()
			if s := rng.Intn(m); probe%2 == 0 && len(added[s]) > 0 {
				fp = added[s][rng.Intn(len(added[s]))] // a key some member holds
			}
			ps.Reuse(fp)
			var want uint64
			for s, raw := range raws {
				if live>>uint(s)&1 == 1 && testRaw(raw, ps) {
					want |= 1 << uint(s)
				}
			}
			if got := GroupMask(page, m, SizeBits(n, fpr), ps, live); got != want {
				t.Fatalf("m=%d n=%d fpr=%v slack=%d live=%x: GroupMask=%x, per-member loop=%x", m, n, fpr, slack, live, got, want)
			}
		}
		for s, raw := range raws {
			if got := ExtractColumn(nil, page, m, s, len(raw)); !bytes.Equal(got, raw) {
				t.Fatalf("m=%d: column %d does not extract to the filter merged into it", m, s)
			}
		}
	}
}

func TestProbeSetReuse(t *testing.T) {
	k := NumHashes(0.001)
	ps := NewProbeSet(1, k)
	filt := New(40, 0.001)
	filt.Add(12345)
	ps.Reuse(12345)
	if !ps.TestFilter(filt) {
		t.Fatal("reused probe set missed an added element")
	}
	ps.Reuse(99999)
	fresh := NewProbeSet(99999, k)
	for i := range fresh.hs {
		if fresh.hs[i] != ps.hs[i] {
			t.Fatal("Reuse produced different positions than NewProbeSet")
		}
	}
}

func TestReset(t *testing.T) {
	f := New(40, 0.01)
	f.Add(7)
	f.Reset()
	if f.Test(7) {
		t.Fatal("Reset did not clear the filter")
	}
}

func TestPaperPBFGPagePacking(t *testing.T) {
	// §5.1: 72-byte filters, 50 per 4 KB page ("each index group stores
	// bloom filters for 50 SGs").
	bf := SizeBits(40, 0.001) / 8
	if bf*50 > 4096 {
		t.Fatalf("50 filters of %d bytes do not fit a 4 KB page", bf)
	}
}

// BenchmarkPBFGLookup1000 reproduces the §5.5 microbenchmark: computing the
// candidate SGs through a PBFG of 1000 set-level Bloom filters with shared
// probes (the paper measures ≈1 µs on GoogleTest) — here 20 pages of 50.
func BenchmarkPBFGLookup1000(b *testing.B) {
	const groups, m = 20, 50
	rng := rand.New(rand.NewSource(1))
	fill := make([]int, m)
	for s := range fill {
		fill[s] = 40
	}
	pages := make([][]byte, groups)
	for i := range pages {
		_, pages[i], _ = slicedGroup(rng, m, 40, 0.001, fill, 496)
	}
	mbits := SizeBits(40, 0.001)
	ps := NewProbeSet(0, NumHashes(0.001))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.Reuse(hashing.SplitMix64(uint64(i)))
		for _, page := range pages {
			sinkMask |= GroupMask(page, m, mbits, ps, ^uint64(0))
		}
	}
}

var sinkMask uint64

// BenchmarkPBFGGroupTest times one 50-member group test — the unit of work a
// lookup's plan phase does per index group — with the pages spread over an
// 8 MiB footprint visited at random, so the rows come from cold cache lines
// as they do in a cache with thousands of PBFG pages. filter-major is the
// per-member loop over the layout the bit-sliced page replaced.
func BenchmarkPBFGGroupTest(b *testing.B) {
	const m, pageSize, npages = 50, 4096, 8 << 20 / 4096
	rng := rand.New(rand.NewSource(1))
	fill := make([]int, m)
	for s := range fill {
		fill[s] = 40
	}
	raws, page, _ := slicedGroup(rng, m, 40, 0.001, fill, pageSize-m*72)
	sliced := make([]byte, npages*pageSize)
	major := make([]byte, npages*pageSize)
	for p := 0; p < npages; p++ {
		copy(sliced[p*pageSize:], page)
		for s, raw := range raws {
			copy(major[p*pageSize+s*72:], raw)
		}
	}
	mbits := SizeBits(40, 0.001)
	ps := NewProbeSet(0, NumHashes(0.001))
	run := func(name string, pages []byte, test func(page []byte) uint64) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := hashing.SplitMix64(uint64(i))
				ps.Reuse(h)
				off := int(h>>40) % npages * pageSize
				sinkMask |= test(pages[off : off+pageSize : off+pageSize])
			}
		})
	}
	run("sliced", sliced, func(page []byte) uint64 { return GroupMask(page, m, mbits, ps, ^uint64(0)) })
	run("filter-major", major, func(page []byte) (mask uint64) {
		for s := 0; s < m; s++ {
			if testRaw(page[s*72:(s+1)*72], ps) {
				mask |= 1 << uint(s)
			}
		}
		return mask
	})
}
