package cachelib

// PerKey supplies GetMany, SetMany, SetAsync and Drain to an engine that has
// nothing to batch or defer, as loops over the engine's own Get and Set: the
// call shape of Engine without a batching win, and Fields as its Stats rows.
// An engine embeds it and points it at itself in its constructor (PerKeyOver);
// methods the engine defines itself win over the embedded ones. SetMany is
// written only here, so every engine — Nemo and the sharded facade included —
// applies a batch as its ordered Sets.
type PerKey struct{ e getSetter }

type getSetter interface {
	Get(key []byte) ([]byte, bool)
	Set(key, value []byte) error
	Stats() Stats
}

// PerKeyOver returns the loops over e's Get and Set.
func PerKeyOver(e getSetter) PerKey { return PerKey{e} }

// GetMany implements Engine with one Get per key.
func (p PerKey) GetMany(keys [][]byte) (values [][]byte, hits []bool) {
	values = make([][]byte, len(keys))
	hits = make([]bool, len(keys))
	for i, k := range keys {
		values[i], hits[i] = p.e.Get(k)
	}
	return values, hits
}

// SetMany implements Engine with one Set per key in batch order, stopping
// at the first error.
func (p PerKey) SetMany(keys, values [][]byte) error {
	for i := range keys {
		if err := p.e.Set(keys[i], values[i]); err != nil {
			return err
		}
	}
	return nil
}

// SetAsync implements Engine as a synchronous Set.
func (p PerKey) SetAsync(key, value []byte) error { return p.e.Set(key, value) }

// Drain implements Engine: nothing is ever deferred.
func (p PerKey) Drain() error { return nil }

// Fields implements Engine: the engine keeps nothing beyond its Stats.
func (p PerKey) Fields() []Field { return p.e.Stats().Fields() }

// DeleteShadow is how Set, KG and FW answer Delete. It is a modelling
// device, not part of those designs: a set-associative page can only drop
// an object by rewriting the page, and the paper's comparison charges the
// baselines no flash write for a DELETE. So a deleted key goes into a DRAM
// set that is consulted before the engine proper: a shadowed Get is a miss
// that still counts in Stats.Gets but reads no flash and records no latency
// sample, and the next successful Set of the key — never a failed one —
// lifts the shadow. The set costs its engine no flash write and is not
// counted in MemoryBitsPerObject. The zero value is ready; the embedding
// engine calls every method under its own mutex, with its own Stats.
type DeleteShadow struct {
	dead map[string]struct{}
}

// Delete shadows key and counts the deletion.
func (d *DeleteShadow) Delete(key []byte, st *Stats) {
	if d.dead == nil {
		d.dead = make(map[string]struct{})
	}
	d.dead[string(key)] = struct{}{}
	st.Deletes++
}

// Hides reports whether key is shadowed, counting the lookup when it is
// (the engine proper never sees it).
func (d *DeleteShadow) Hides(key []byte, st *Stats) bool {
	_, dead := d.dead[string(key)]
	if dead {
		st.Gets++
	}
	return dead
}

// Lift forgets key's deletion after a successful Set.
func (d *DeleteShadow) Lift(key []byte) { delete(d.dead, string(key)) }
