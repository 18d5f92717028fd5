package enginetest

import (
	"bytes"
	"fmt"
	"testing"

	"nemo/internal/cachelib"
)

// Conformance is the engine-contract table: what every cachelib.Engine —
// Nemo, the four baselines, and each of them behind a sharded facade —
// must do on Delete, on the batch calls and on the deferred-write calls,
// however it implements them (natively, by a per-key loop, or with the
// baselines' delete shadow). mk builds a fresh engine on a fresh device;
// cases that compare two engines build both with it. Every case stays far
// below any test device's capacity, so a miss is never an eviction.
func Conformance(t *testing.T, mk func(t *testing.T) cachelib.Engine) {
	t.Helper()
	build := func(t *testing.T) cachelib.Engine {
		e := mk(t)
		t.Cleanup(func() { e.Close() })
		return e
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("conformance-key-%04d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("conformance-value-%04d", i)) }
	// No engine admits an object larger than a flash page.
	oversize := make([]byte, 1<<16)
	mustGet := func(t *testing.T, e cachelib.Engine, k, want []byte) {
		t.Helper()
		if v, hit := e.Get(k); !hit || !bytes.Equal(v, want) {
			t.Fatalf("Get(%s): hit=%v value=%q, want %q", k, hit, v, want)
		}
	}

	t.Run("delete", func(t *testing.T) {
		e := build(t)
		k := key(0)
		if err := e.Set(k, val(0)); err != nil {
			t.Fatal(err)
		}
		mustGet(t, e, k, val(0))
		if err := e.Delete(k); err != nil {
			t.Fatal(err)
		}
		if _, hit := e.Get(k); hit {
			t.Fatal("deleted key still hits")
		}
		if st := e.Stats(); st.Gets != 2 || st.Hits != 1 || st.Deletes != 1 {
			t.Fatalf("gets=%d hits=%d deletes=%d, want 2/1/1: a lookup answered by the delete still counts",
				st.Gets, st.Hits, st.Deletes)
		}
		if err := e.Set(k, oversize); err == nil {
			t.Fatal("oversize Set succeeded")
		}
		if _, hit := e.Get(k); hit {
			t.Fatal("a failed Set resurrected the deleted key")
		}
		if err := e.Set(k, val(1)); err != nil {
			t.Fatal(err)
		}
		mustGet(t, e, k, val(1))
	})

	t.Run("batch", func(t *testing.T) {
		const n, bad = 24, 7
		keys, vals := make([][]byte, n), make([][]byte, n)
		for i := range keys {
			keys[i], vals[i] = key(i), val(i)
		}
		vals[bad] = oversize
		batched, serial := build(t), build(t)
		// The contract: the batch's Sets in batch order, on every shard
		// count, stopping at the first error.
		var want error
		for i := 0; i < n && want == nil; i++ {
			want = serial.Set(keys[i], vals[i])
		}
		got := batched.SetMany(keys, vals)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("SetMany error = %v, the ordered Sets' = %v", got, want)
		}
		if b, s := batched.Stats(), serial.Stats(); b != s {
			t.Fatalf("SetMany diverged from the ordered Sets:\nbatched: %+v\nserial:  %+v", b, s)
		}
		probe := append(append([][]byte(nil), keys...), key(n)) // one key never written
		gotV, gotH := batched.GetMany(probe)
		if len(gotV) != len(probe) || len(gotH) != len(probe) {
			t.Fatalf("GetMany returned %d values, %d hits for %d keys", len(gotV), len(gotH), len(probe))
		}
		for i, k := range probe {
			v, hit := serial.Get(k)
			if hit != gotH[i] || !bytes.Equal(v, gotV[i]) {
				t.Fatalf("GetMany[%d] = %q/%v, Get = %q/%v", i, gotV[i], gotH[i], v, hit)
			}
			if wantHit := i < bad; hit != wantHit {
				t.Fatalf("key %d: hit=%v, want %v (failing key %d)", i, hit, wantHit, bad)
			}
		}
		if b, s := batched.Stats(), serial.Stats(); b != s {
			t.Fatalf("GetMany diverged from the per-key Gets:\nbatched: %+v\nserial:  %+v", b, s)
		}
		if vs, hs := batched.GetMany(nil); len(vs) != 0 || len(hs) != 0 {
			t.Fatalf("empty GetMany returned %d values, %d hits", len(vs), len(hs))
		}
		if err := batched.SetMany(nil, nil); err != nil {
			t.Fatalf("empty SetMany: %v", err)
		}
	})

	t.Run("async", func(t *testing.T) {
		const n = 24
		e := build(t)
		for i := 0; i < n; i++ {
			if err := e.SetAsync(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Sets != n {
			t.Fatalf("Sets = %d after Drain, want %d", st.Sets, n)
		}
		for i := 0; i < n; i++ {
			mustGet(t, e, key(i), val(i))
		}
	})
}
