package setblock

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nemo/internal/hashing"
)

func mkEntry(i int) (fp uint64, key, value []byte) {
	key = []byte(fmt.Sprintf("key-%06d", i))
	value = make([]byte, 20+i%50)
	for j := range value {
		value[j] = byte(i + j)
	}
	return hashing.Fingerprint(key), key, value
}

func TestInsertLookup(t *testing.T) {
	b := New(4096)
	for i := 0; i < 10; i++ {
		fp, k, v := mkEntry(i)
		if !b.Insert(fp, k, v) {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i := 0; i < 10; i++ {
		fp, k, v := mkEntry(i)
		got, slot, ok := b.Lookup(fp, k)
		if !ok || string(got) != string(v) {
			t.Fatalf("lookup %d failed", i)
		}
		if slot != i {
			t.Fatalf("entry %d at slot %d, want FIFO order", i, slot)
		}
	}
}

func TestInsertReplaces(t *testing.T) {
	b := New(4096)
	fp, k, _ := mkEntry(1)
	b.Insert(fp, k, []byte("old"))
	before := b.Count()
	b.Insert(fp, k, []byte("newer-value"))
	if b.Count() != before {
		t.Fatalf("replace changed count: %d -> %d", before, b.Count())
	}
	v, _, ok := b.Lookup(fp, k)
	if !ok || string(v) != "newer-value" {
		t.Fatalf("lookup after replace = %q", v)
	}
}

func TestEvictOldestFIFO(t *testing.T) {
	b := New(4096)
	for i := 0; i < 5; i++ {
		fp, k, v := mkEntry(i)
		b.Insert(fp, k, v)
	}
	e, ok := b.EvictOldest()
	if !ok {
		t.Fatal("evict failed")
	}
	_, k0, _ := mkEntry(0)
	if string(e.Key) != string(k0) {
		t.Fatalf("evicted %q, want oldest %q", e.Key, k0)
	}
	if b.Count() != 4 {
		t.Fatalf("count = %d after evict, want 4", b.Count())
	}
}

func TestRejectOversized(t *testing.T) {
	b := New(128)
	fp := uint64(1)
	if b.Append(fp, make([]byte, 100), make([]byte, 100)) {
		t.Fatal("accepted entry larger than block")
	}
	if b.Append(fp, make([]byte, 300), nil) {
		t.Fatal("accepted key > 255 bytes")
	}
}

func TestFillAccounting(t *testing.T) {
	b := New(4096)
	if b.Used() != HeaderSize || b.Free() != 4096-HeaderSize {
		t.Fatal("fresh block accounting wrong")
	}
	fp, k, v := mkEntry(0)
	b.Insert(fp, k, v)
	want := HeaderSize + EntrySize(len(k), len(v))
	if b.Used() != want {
		t.Fatalf("used = %d, want %d", b.Used(), want)
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	b := New(4096)
	for i := 0; i < 12; i++ {
		fp, k, v := mkEntry(i)
		b.Insert(fp, k, v)
	}
	page := b.AppendTo(nil)
	if len(page) != 4096 {
		t.Fatalf("serialized %d bytes, want full page", len(page))
	}
	c, err := Parse(page, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != b.Count() || c.Used() != b.Used() {
		t.Fatal("parsed block differs")
	}
	for i := 0; i < 12; i++ {
		fp, k, v := mkEntry(i)
		got, _, ok := c.Lookup(fp, k)
		if !ok || string(got) != string(v) {
			t.Fatalf("entry %d lost in round trip", i)
		}
	}
}

func TestParseRejectsCorrupt(t *testing.T) {
	b := New(4096)
	fp, k, v := mkEntry(0)
	b.Insert(fp, k, v)
	page := b.AppendTo(nil)

	cases := map[string]func([]byte){
		"short page":    func(p []byte) {}, // handled via slicing below
		"bad count":     func(p []byte) { p[0] = 0xff; p[1] = 0xff },
		"used too big":  func(p []byte) { p[2] = 0xff; p[3] = 0x0f },
		"truncated key": func(p []byte) { p[HeaderSize+8] = 0xff },
	}
	for name, corrupt := range cases {
		p := append([]byte(nil), page...)
		if name == "short page" {
			if _, err := Parse(p[:2], 4096); err == nil {
				t.Fatalf("%s: expected parse error", name)
			}
			continue
		}
		corrupt(p)
		if _, err := Parse(p, 4096); err == nil {
			t.Fatalf("%s: expected parse error", name)
		}
	}
}

func TestRangeOrderAndEarlyStop(t *testing.T) {
	b := New(4096)
	for i := 0; i < 8; i++ {
		fp, k, v := mkEntry(i)
		b.Insert(fp, k, v)
	}
	var visited int
	b.Range(func(slot int, e Entry) bool {
		if slot != visited {
			t.Fatalf("slot %d out of order", slot)
		}
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("early stop visited %d, want 3", visited)
	}
}

func TestRemove(t *testing.T) {
	b := New(4096)
	fp, k, v := mkEntry(0)
	b.Insert(fp, k, v)
	if !b.Remove(fp, k) {
		t.Fatal("remove failed")
	}
	if b.Remove(fp, k) {
		t.Fatal("second remove should fail")
	}
	if b.Count() != 0 || b.Used() != HeaderSize {
		t.Fatal("remove left residue")
	}
}

// TestPropertyRoundTrip inserts random entry batches and checks the
// serialize/parse round trip preserves every entry — the core on-flash
// integrity invariant all engines rely on.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(4096)
		type kv struct{ k, v []byte }
		var kept []kv
		for i := 0; i < int(n); i++ {
			k := make([]byte, 1+rng.Intn(40))
			rng.Read(k)
			v := make([]byte, rng.Intn(200))
			rng.Read(v)
			if b.Insert(hashing.Fingerprint(k), k, v) {
				// Replaces may drop earlier duplicates; rebuild kept list.
				filtered := kept[:0]
				for _, e := range kept {
					if string(e.k) != string(k) {
						filtered = append(filtered, e)
					}
				}
				kept = append(filtered, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
			}
		}
		c, err := Parse(b.AppendTo(nil), 4096)
		if err != nil {
			return false
		}
		if c.Count() != len(kept) {
			return false
		}
		for _, e := range kept {
			got, _, ok := c.Lookup(hashing.Fingerprint(e.k), e.k)
			if !ok || string(got) != string(e.v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUsedConsistent checks Used() always equals the sum of entry
// sizes plus header across random operation sequences.
func TestPropertyUsedConsistent(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(2048)
		for i := 0; i < int(ops); i++ {
			switch rng.Intn(3) {
			case 0:
				k := []byte(fmt.Sprintf("k%d", rng.Intn(20)))
				v := make([]byte, rng.Intn(100))
				b.Insert(hashing.Fingerprint(k), k, v)
			case 1:
				k := []byte(fmt.Sprintf("k%d", rng.Intn(20)))
				b.Remove(hashing.Fingerprint(k), k)
			case 2:
				b.EvictOldest()
			}
			sum := HeaderSize
			b.Range(func(_ int, e Entry) bool {
				sum += EntrySize(len(e.Key), len(e.Value))
				return true
			})
			if sum != b.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
