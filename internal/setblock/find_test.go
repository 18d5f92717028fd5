package setblock

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// The search loops Lookup, Remove, Insert and Scan used before they shared
// find, and AppendTo's byte-at-a-time padding, kept as the reference the
// property test below compares the shared walker against.

func refLookup(b *Block, fp uint64, key []byte) ([]byte, int, bool) {
	off := 0
	for i := 0; i < b.count; i++ {
		e, next := b.entryAt(off)
		if e.FP == fp && string(e.Key) == string(key) {
			return e.Value, i, true
		}
		off = next
	}
	return nil, -1, false
}

func refRemove(b *Block, fp uint64, key []byte) bool {
	off := 0
	for i := 0; i < b.count; i++ {
		e, next := b.entryAt(off)
		if e.FP == fp && string(e.Key) == string(key) {
			b.buf = append(b.buf[:off], b.buf[next:]...)
			b.count--
			return true
		}
		off = next
	}
	return false
}

func refInsert(b *Block, fp uint64, key, value []byte) bool {
	if len(key) > 255 || len(value) > 65535 {
		return false
	}
	free := b.Free()
	if old, _, ok := refLookup(b, fp, key); ok {
		free += EntrySize(len(key), len(old))
	}
	if EntrySize(len(key), len(value)) > free {
		return false
	}
	refRemove(b, fp, key)
	return b.Append(fp, key, value)
}

func refScan(page []byte, fp uint64, key []byte) ([]byte, int, bool) {
	if len(page) < HeaderSize {
		return nil, -1, false
	}
	count := int(binary.LittleEndian.Uint16(page[0:]))
	used := int(binary.LittleEndian.Uint16(page[2:]))
	if HeaderSize+used > len(page) {
		return nil, -1, false
	}
	buf := page[HeaderSize : HeaderSize+used]
	off := 0
	for i := 0; i < count; i++ {
		if off+EntryOverhead > len(buf) {
			return nil, -1, false
		}
		efp := binary.LittleEndian.Uint64(buf[off:])
		kl := int(buf[off+8])
		vl := int(binary.LittleEndian.Uint16(buf[off+9:]))
		ks := off + EntryOverhead
		if ks+kl+vl > len(buf) {
			return nil, -1, false
		}
		if efp == fp && string(buf[ks:ks+kl]) == string(key) {
			return buf[ks+kl : ks+kl+vl], i, true
		}
		off = ks + kl + vl
	}
	return nil, -1, false
}

func refAppendTo(b *Block, dst []byte) []byte {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(b.count))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(b.buf)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, b.buf...)
	for i := b.size - HeaderSize - len(b.buf); i > 0; i-- {
		dst = append(dst, 0)
	}
	return dst
}

// TestPropertyFindMatchesReference drives the same random operations through
// a block using the shared walker and one using the reference loops, and
// requires identical bytes (so FIFO order after Remove and replace), values
// and slot indexes. Fingerprints come from a domain of four and keys from a
// pool with repeated lengths and shared prefixes, so entries that collide on
// the fingerprint, on fingerprint and key length, or on neither all occur;
// Scan is also compared on pages with a random byte flipped.
func TestPropertyFindMatchesReference(t *testing.T) {
	const size = 512
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("ab"), []byte("ac"), []byte("abc"), []byte("abd"), {}, []byte("abcdefgh")}
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		got, want := New(size), New(size)
		for i := 0; i < int(ops); i++ {
			fp := uint64(rng.Intn(4)) << 60
			key := keys[rng.Intn(len(keys))]
			switch rng.Intn(4) {
			case 0, 1:
				v := make([]byte, rng.Intn(60))
				rng.Read(v)
				if got.Insert(fp, key, v) != refInsert(want, fp, key, v) {
					return false
				}
			case 2:
				if got.Remove(fp, key) != refRemove(want, fp, key) {
					return false
				}
			case 3:
				got.EvictOldest()
				want.EvictOldest()
			}
			if got.count != want.count || !bytes.Equal(got.buf, want.buf) {
				return false
			}
			prefix := []byte("prefix")
			page := got.AppendTo(append([]byte(nil), prefix...))
			if !bytes.Equal(page, refAppendTo(want, append([]byte(nil), prefix...))) {
				return false
			}
			page = page[len(prefix):]
			flipped := append([]byte(nil), page...)
			flipped[rng.Intn(HeaderSize+len(got.buf))] ^= 1 << rng.Intn(8)
			for q := 0; q < 4; q++ {
				for _, k := range keys {
					qfp := uint64(q) << 60
					gv, gs, gok := got.Lookup(qfp, k)
					wv, ws, wok := refLookup(want, qfp, k)
					if gok != wok || gs != ws || !bytes.Equal(gv, wv) {
						return false
					}
					for _, p := range [][]byte{page, flipped} {
						gv, gs, gok = Scan(p, qfp, k)
						wv, ws, wok = refScan(p, qfp, k)
						if gok != wok || gs != ws || !bytes.Equal(gv, wv) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
