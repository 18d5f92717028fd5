package core

import (
	"bytes"
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

// scanSet is the full walk lookup's presence word short-cuts.
func scanSet(sg *memSG, o int, fp uint64, key []byte) (value []byte, ok bool) {
	sg.sets[o].Range(func(_ int, e setblock.Entry) bool {
		if e.FP == fp && string(e.Key) == string(key) {
			value, ok = e.Value, true
		}
		return !ok
	})
	return value, ok
}

// TestPresenceWordProperty drives a memSG through seeded random
// interleavings of the operations the cache performs on one — place (remove,
// then append if it fits), tombstone, remove, sacrifice, reset, and the
// serialize/decodeSet round trip a checkpoint and restore put every set
// through — against the model. The presence word may say "maybe" for an
// absent key but never "absent" for a present one: after every operation,
// for every key of the universe, lookup agrees with the model and with a
// full scan of the page, and remove reports what the model reports.
func TestPresenceWordProperty(t *testing.T) {
	const (
		nsets   = 4
		setSize = 256
		nkeys   = 96 // > 64 per SG and ~24 per set: presence bits collide
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
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sg := newMemSG(nsets, setSize)
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
		for op := 0; op < 1500; op++ {
			u := universe[rng.Intn(nkeys)]
			switch r := rng.Intn(100); {
			case r < 45:
				v := make([]byte, 1+rng.Intn(30))
				rng.Read(v)
				place(u, v, insNew)
			case r < 55:
				place(u, nil, insTombstone)
			case r < 75:
				if got, want := sg.remove(u.o, u.fp, u.key), model.remove(u.o, string(u.key)); got != want {
					t.Fatalf("seed %d op %d: remove(%s) = %v, model %v", seed, op, u.key, got, want)
				}
			case r < 90:
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
			case r < 97:
				// Checkpoint → restore: every set through its page image.
				restored := newMemSG(nsets, setSize)
				for o := range sg.sets {
					if err := restored.decodeSet(o, sg.sets[o].AppendTo(nil)); err != nil {
						t.Fatalf("seed %d op %d: decodeSet: %v", seed, op, err)
					}
				}
				sg = restored
			default:
				sg.reset()
				model.sets = make([][]modelEnt, nsets)
			}

			used := 0
			for o := range sg.sets {
				used += sg.sets[o].Used()
			}
			if sg.used != used {
				t.Fatalf("seed %d op %d: used %d, sets sum to %d", seed, op, sg.used, used)
			}
			for _, q := range universe {
				want, present := model.lookup(q.o, string(q.key))
				scanned, inPage := scanSet(sg, q.o, q.fp, q.key)
				got, ok := sg.lookup(q.o, q.fp, q.key)
				if inPage != present || !bytes.Equal(scanned, want) {
					t.Fatalf("seed %d op %d: page holds %s = %q (%v), model %q (%v)", seed, op, q.key, scanned, inPage, want, present)
				}
				if ok != present || !bytes.Equal(got, want) {
					t.Fatalf("seed %d op %d: lookup(%s) = %q (%v), full scan %q (%v)", seed, op, q.key, got, ok, want, present)
				}
			}
		}
	}
}
