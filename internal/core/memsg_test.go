package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"nemo/internal/hashing"
	"nemo/internal/setblock"
)

// memModel is the reference a memSG is checked against: per set, the
// entries in FIFO order, with the sizes recomputed from scratch.
type memModel struct {
	setSize int
	sets    [][]modelEnt
}

type modelEnt struct {
	key   string
	value []byte
}

func (m *memModel) free(o int) int {
	free := m.setSize - setblock.HeaderSize
	for _, e := range m.sets[o] {
		free -= setblock.EntrySize(len(e.key), len(e.value))
	}
	return free
}

func (m *memModel) remove(o int, key string) bool {
	for i, e := range m.sets[o] {
		if e.key == key {
			m.sets[o] = append(m.sets[o][:i:i], m.sets[o][i+1:]...)
			return true
		}
	}
	return false
}

func (m *memModel) lookup(o int, key string) ([]byte, bool) {
	for _, e := range m.sets[o] {
		if e.key == key {
			return e.value, true
		}
	}
	return nil, false
}

// page is set o's page image as a setblock.Block of the model's entries
// serializes it.
func (m *memModel) page(o int) []byte {
	blk := setblock.New(m.setSize)
	for _, e := range m.sets[o] {
		blk.Append(hashing.Fingerprint([]byte(e.key)), []byte(e.key), e.value)
	}
	return blk.AppendTo(nil)
}

// live is the log bytes the model's entries take as records.
func (m *memModel) live() int {
	n := 0
	for _, set := range m.sets {
		for _, e := range set {
			n += recLink + setblock.EntrySize(len(e.key), len(e.value))
		}
	}
	return n
}

// scanSet is the full walk lookup's presence words short-cut.
func scanSet(sg *memSG, o int, fp uint64, key []byte) (value []byte, ok bool) {
	sg.rangeSet(o, func(e setblock.Entry) bool {
		if e.FP == fp && string(e.Key) == string(key) {
			value, ok = e.Value, true
		}
		return !ok
	})
	return value, ok
}

// TestPresenceWordProperty drives a memSG through seeded random interleavings
// of the operations the cache performs on one — place (remove, then append
// if it fits), tombstone, remove, sacrifice, reset, and the
// serialize/decodeSet round trip a checkpoint and restore put every set
// through — against the model, in two op mixes: a broad one over 96 keys,
// and an overwrite-heavy one over 12 that keeps the log compacting. After
// every operation:
//
//   - every set's appendSet is byte for byte the page a setblock.Block of
//     the model's entries writes, so a flush and a checkpoint see the model;
//   - the log's chunks hold at most 2 × live + 3 chunks, live being the
//     model's record bytes, and its live and dead counters add up;
//   - for every key of the universe, lookup agrees with the model and with a
//     full walk of the set, and remove reports what the model reports: the
//     presence words may say "maybe" for an absent key but never "absent"
//     for a present one.
//
// The overwrite-heavy mix must compact in every seed.
func TestPresenceWordProperty(t *testing.T) {
	const (
		nsets   = 4
		setSize = 256
		nkeys   = 96 // ~24 per set; removed keys leave their presence bits set
	)
	type ukey struct {
		key []byte
		fp  uint64
		o   int
	}
	universe := make([]ukey, nkeys)
	for i := range universe {
		k := []byte(fmt.Sprintf("pw-%03d", i))
		fp := hashing.Fingerprint(k)
		universe[i] = ukey{key: k, fp: fp, o: int(fp % nsets)}
	}
	// A mix is cumulative percent bounds for place, tombstone, remove,
	// sacrifice and restore; the rest resets.
	mixes := []struct {
		name string
		keys int
		cum  [5]int
	}{
		{"broad", nkeys, [5]int{45, 55, 75, 90, 97}},
		{"overwrite", 12, [5]int{80, 84, 92, 97, 99}},
	}
	for _, mix := range mixes {
		t.Run(mix.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				pool := &kitPool{keep: 1}
				sg := newMemSG(nsets, setSize, pool)
				model := &memModel{setSize: setSize, sets: make([][]modelEnt, nsets)}
				place := func(u ukey, value []byte, class insClass) {
					if got, want := sg.remove(u.o, u.fp, u.key), model.remove(u.o, string(u.key)); got != want {
						t.Fatalf("seed %d: remove(%s) before place = %v, model %v", seed, u.key, got, want)
					}
					fits := setblock.EntrySize(len(u.key), len(value)) <= model.free(u.o)
					if got := sg.canFit(u.o, len(u.key), len(value)); got != fits {
						t.Fatalf("seed %d: canFit(%s) = %v, model %v", seed, u.key, got, fits)
					}
					if got := sg.insert(u.o, u.fp, u.key, value, class); got != fits {
						t.Fatalf("seed %d: insert(%s) = %v, model %v", seed, u.key, got, fits)
					}
					if fits {
						model.sets[u.o] = append(model.sets[u.o], modelEnt{string(u.key), value})
					}
				}
				compactions := 0
				for op := 0; op < 1500; op++ {
					u := universe[rng.Intn(mix.keys)]
					dead := sg.dead
					switch r := rng.Intn(100); {
					case r < mix.cum[0]:
						v := make([]byte, 1+rng.Intn(30))
						rng.Read(v)
						place(u, v, insNew)
					case r < mix.cum[1]:
						place(u, nil, insTombstone)
					case r < mix.cum[2]:
						if got, want := sg.remove(u.o, u.fp, u.key), model.remove(u.o, string(u.key)); got != want {
							t.Fatalf("seed %d op %d: remove(%s) = %v, model %v", seed, op, u.key, got, want)
						}
					case r < mix.cum[3]:
						need := setblock.EntrySize(len(u.key), 1+rng.Intn(60))
						want := 0
						for model.free(u.o) < need {
							i := 0
							for i < len(model.sets[u.o]) && len(model.sets[u.o][i].value) == 0 {
								i++
							}
							if i == len(model.sets[u.o]) {
								break
							}
							model.remove(u.o, model.sets[u.o][i].key)
							want++
						}
						if got := sg.sacrifice(u.o, need); got != want {
							t.Fatalf("seed %d op %d: sacrifice evicted %d, model %d", seed, op, got, want)
						}
					case r < mix.cum[4]:
						// Checkpoint → restore: every set through its page image.
						restored := newMemSG(nsets, setSize, pool)
						for o := 0; o < nsets; o++ {
							if err := restored.decodeSet(o, sg.appendSet(o, nil)); err != nil {
								t.Fatalf("seed %d op %d: decodeSet: %v", seed, op, err)
							}
						}
						sg.reset()
						sg, dead = restored, 0
					default:
						sg.reset()
						model.sets = make([][]modelEnt, nsets)
						dead = 0
					}
					if sg.dead < dead {
						compactions++
					}

					used := 0
					for o := 0; o < nsets; o++ {
						page := model.page(o)
						if got := sg.appendSet(o, nil); !bytes.Equal(got, page) {
							t.Fatalf("seed %d op %d: set %d page image\n got %x\nwant %x", seed, op, o, got, page)
						}
						used += setblock.HeaderSize + int(binary.LittleEndian.Uint16(page[2:]))
					}
					if sg.used != used {
						t.Fatalf("seed %d op %d: used %d, pages sum to %d", seed, op, sg.used, used)
					}
					live := model.live()
					logBytes := len(sg.chunks) * sg.chunkSize
					if sg.live != live || logBytes != sg.live+sg.dead+sg.chunkSize*min(1, len(sg.chunks))-sg.tail {
						t.Fatalf("seed %d op %d: log of %d bytes holds %d live (model %d), %d dead, tail %d",
							seed, op, logBytes, sg.live, live, sg.dead, sg.tail)
					}
					if logBytes > 2*live+3*sg.chunkSize {
						t.Fatalf("seed %d op %d: log of %d bytes for %d live, over 2 × live + 3 chunks of %d",
							seed, op, logBytes, live, sg.chunkSize)
					}
					for _, q := range universe {
						want, present := model.lookup(q.o, string(q.key))
						scanned, inPage := scanSet(sg, q.o, q.fp, q.key)
						got, ok := sg.lookup(q.o, q.fp, q.key)
						if inPage != present || !bytes.Equal(scanned, want) {
							t.Fatalf("seed %d op %d: set holds %s = %q (%v), model %q (%v)", seed, op, q.key, scanned, inPage, want, present)
						}
						if ok != present || !bytes.Equal(got, want) {
							t.Fatalf("seed %d op %d: lookup(%s) = %q (%v), model %q (%v)", seed, op, q.key, got, ok, want, present)
						}
					}
				}
				if mix.name == "overwrite" && compactions == 0 {
					t.Errorf("seed %d: the overwrite-heavy mix never compacted the log", seed)
				}
				if len(pool.chunks) > sg.keepIdle {
					t.Errorf("seed %d: %d idle chunks, the list keeps %d", seed, len(pool.chunks), sg.keepIdle)
				}
			}
		})
	}
}
