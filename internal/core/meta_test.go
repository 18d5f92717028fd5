package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestMetaCarve checks an SG's packed meta — nsets+1 prefix sums, then the
// hot words — against a map model over random per-set counts, with empty
// sets and a 341-entry set among them: setCount and base(nsets) against the
// counts, setBit/bit/clearSet against the model, and the snapshot repack
// (snapMeta into NEMO1's uint16 counts and uint64 words, then carveMeta and
// loadBits back) as a round trip that lands on the same meta.
func TestMetaCarve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		nsets := 2 + rng.Intn(300)
		counts := make([]uint32, nsets)
		for o := range counts {
			if rng.Intn(4) > 0 {
				counts[o] = uint32(rng.Intn(48))
			}
		}
		counts[rng.Intn(nsets)] = 0
		counts[rng.Intn(nsets)] = 341
		total := 0
		for _, n := range counts {
			total += int(n)
		}
		sg := &flashSG{nsets: nsets, objCount: total}
		carveMeta(sg, counts)
		if got := int(sg.base(nsets)); got != total {
			t.Fatalf("trial %d: base(nsets) = %d, want the object count %d", trial, got, total)
		}
		for o, n := range counts {
			if got := sg.setCount(o); got != int(n) {
				t.Fatalf("trial %d: setCount(%d) = %d, want %d", trial, o, got, n)
			}
		}
		if len(sg.hotWords()) != 2*((total+63)/64) {
			t.Fatalf("trial %d: %d hot words for %d objects", trial, len(sg.hotWords()), total)
		}

		type slot struct{ o, s int }
		model := map[slot]bool{}
		check := func(when string) {
			t.Helper()
			for o, n := range counts {
				for s := 0; s < int(n); s++ {
					if got := sg.bit(o, s); got != model[slot{o, s}] {
						t.Fatalf("trial %d, %s: bit(%d,%d) = %v, model says %v", trial, when, o, s, got, !got)
					}
				}
			}
		}
		sg.clearSet(rng.Intn(nsets)) // before any mark: a no-op
		check("unmarked")
		for op := 0; op < 400; op++ {
			o := rng.Intn(nsets)
			if counts[o] == 0 {
				continue
			}
			if rng.Intn(8) == 0 {
				sg.clearSet(o)
				for s := 0; s < int(counts[o]); s++ {
					delete(model, slot{o, s})
				}
				continue
			}
			s := rng.Intn(int(counts[o]))
			sg.setBit(o, s)
			model[slot{o, s}] = true
		}
		check("marked")

		setCounts, bits := sg.snapMeta()
		if len(setCounts) != nsets || (bits != nil) != sg.hasBits || (bits != nil && len(bits) != (total+63)/64) {
			t.Fatalf("trial %d: snapMeta gave %d counts and %d words for %d sets, %d objects (marked %v)",
				trial, len(setCounts), len(bits), nsets, total, sg.hasBits)
		}
		for k := range model {
			if i := sg.base(k.o) + uint32(k.s); bits[i>>6]>>(i&63)&1 == 0 {
				t.Fatalf("trial %d: object %d (set %d slot %d) is hot but its NEMO1 bit is clear", trial, i, k.o, k.s)
			}
		}
		back := &flashSG{nsets: nsets, objCount: total}
		carveMeta(back, setCounts)
		if bits != nil {
			back.loadBits(bits)
		}
		if !slices.Equal(back.meta, sg.meta) || back.hasBits != sg.hasBits {
			t.Fatalf("trial %d: meta does not survive the snapshot repack", trial)
		}
	}
}
