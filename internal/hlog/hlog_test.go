package hlog

import (
	"fmt"
	"testing"

	"nemo/internal/flashsim"
	"nemo/internal/hashing"
)

func mkLog(t *testing.T) (*flashsim.Device, *Log) {
	t.Helper()
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 4, Zones: 4})
	l, err := New(dev, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	return dev, l
}

func obj(i int) (set int32, fp uint64, key, value []byte) {
	key = []byte(fmt.Sprintf("log-key-%06d", i))
	value = []byte(fmt.Sprintf("log-value-%06d-padpadpad", i))
	fp = hashing.Fingerprint(key)
	return int32(i % 7), fp, key, value
}

func TestAppendLookupBuffer(t *testing.T) {
	_, l := mkLog(t)
	set, fp, k, v := obj(1)
	if err := l.Append(set, fp, k, v); err != nil {
		t.Fatal(err)
	}
	got, done, ok, err := l.Lookup(set, fp, k)
	if err != nil || !ok || string(got) != string(v) {
		t.Fatalf("buffer lookup failed: %v %v", ok, err)
	}
	if done != 0 {
		t.Fatal("buffer hit should not touch flash")
	}
}

func TestAppendLookupFlash(t *testing.T) {
	_, l := mkLog(t)
	// Enough objects to force page flushes.
	var all []int
	for i := 0; i < 60; i++ {
		set, fp, k, v := obj(i)
		if err := l.Append(set, fp, k, v); err != nil {
			t.Fatal(err)
		}
		all = append(all, i)
	}
	if l.Stats().PagesWritten == 0 {
		t.Fatal("no log pages written")
	}
	for _, i := range all {
		set, fp, k, v := obj(i)
		got, _, ok, err := l.Lookup(set, fp, k)
		if err != nil || !ok || string(got) != string(v) {
			t.Fatalf("object %d lost: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestUpdateReplacesOlder(t *testing.T) {
	_, l := mkLog(t)
	set, fp, k, _ := obj(0)
	l.Append(set, fp, k, []byte("v1-aaaaaaaaaaaaaaaa"))
	l.Append(set, fp, k, []byte("v2-bbbbbbbbbbbbbbbb"))
	got, _, ok, _ := l.Lookup(set, fp, k)
	if !ok || string(got) != "v2-bbbbbbbbbbbbbbbb" {
		t.Fatalf("lookup = %q", got)
	}
	if live := l.Stats().LiveObjects; live != 1 {
		t.Fatalf("log holds %d live objects, want deduped 1", live)
	}
}

func TestFullAndMigration(t *testing.T) {
	_, l := mkLog(t)
	i := 0
	for {
		set, fp, k, v := obj(i)
		err := l.Append(set, fp, k, v)
		if err == ErrFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		i++
		if i > 100000 {
			t.Fatal("log never filled")
		}
	}
	sets := l.OldestZoneSets()
	if len(sets) == 0 {
		t.Fatal("oldest zone has no sets")
	}
	total := 0
	for _, s := range sets {
		objs, err := l.TakeSet(s)
		if err != nil {
			t.Fatal(err)
		}
		total += len(objs)
		for _, o := range objs {
			if hashing.Fingerprint(o.Key) != o.FP {
				t.Fatal("corrupt object from TakeSet")
			}
		}
		if again, err := l.TakeSet(s); err != nil || len(again) != 0 {
			t.Fatalf("TakeSet left %d objects behind (err %v)", len(again), err)
		}
	}
	if total == 0 {
		t.Fatal("migration produced no objects")
	}
	dropped, err := l.ReleaseOldestZone()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d objects that TakeSet should have claimed", dropped)
	}
	// The log must accept appends again.
	set, fp, k, v := obj(999999)
	if err := l.Append(set, fp, k, v); err != nil {
		t.Fatalf("append after release: %v", err)
	}
}

func TestReleaseDropsUnmigrated(t *testing.T) {
	_, l := mkLog(t)
	for i := 0; ; i++ {
		set, fp, k, v := obj(i)
		err := l.Append(set, fp, k, v)
		if err == ErrFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats().LiveObjects
	dropped, err := l.ReleaseOldestZone()
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("expected drops when releasing without migration")
	}
	after := l.Stats().LiveObjects
	if after != before-dropped {
		t.Fatalf("live objects %d -> %d with %d dropped", before, after, dropped)
	}
}

// TestSetLenMatchesAppends reads a set's list length (L_i of §3.2) back the
// way migration does, through TakeSet.
func TestSetLenMatchesAppends(t *testing.T) {
	_, l := mkLog(t)
	for i := 0; i < 30; i++ {
		_, _, k, v := obj(i)
		fp := hashing.Fingerprint(k)
		if err := l.Append(3, fp, k, v); err != nil {
			t.Fatal(err)
		}
	}
	if objs, err := l.TakeSet(3); err != nil || len(objs) != 30 {
		t.Fatalf("TakeSet returned %d objects (err %v), want 30", len(objs), err)
	}
}

func TestRejectsOversized(t *testing.T) {
	_, l := mkLog(t)
	if err := l.Append(0, 1, make([]byte, 200), make([]byte, 400)); err == nil {
		t.Fatal("oversized object accepted")
	}
}

func TestInvalidZoneRange(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 4, Zones: 4})
	if _, err := New(dev, 0, 10); err == nil {
		t.Fatal("range beyond device accepted")
	}
	if _, err := New(dev, 0, 1); err == nil {
		t.Fatal("single-zone log accepted")
	}
}

// TestRemove pins Remove, the log-structured baseline's delete. Two logs take
// the same appends; one removes a flushed entry and a buffered one. The
// buffered entry is not indexed when its page flushes, neither is found by
// Lookup, and releasing the zone that holds them drops two objects fewer.
func TestRemove(t *testing.T) {
	_, plain := mkLog(t)
	_, l := mkLog(t)
	appendBoth := func(i int) {
		set, fp, k, v := obj(i)
		for _, log := range []*Log{plain, l} {
			if err := log.Append(set, fp, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	for ; l.Stats().PagesWritten == 0; i++ {
		appendBoth(i)
	}
	flushed, buffered := 0, i-1 // obj(0) is on flash, the latest append in the buffer
	for _, j := range []int{flushed, buffered} {
		set, fp, _, _ := obj(j)
		l.Remove(set, fp)
	}
	for l.Stats().PagesWritten == 1 { // flush the removed entry's page
		appendBoth(i)
		i++
	}
	_, bfp, _, _ := obj(buffered)
	for _, zo := range l.perZone[l.ring[0]] {
		if zo.fp == bfp {
			t.Fatal("a removed buffered entry was indexed when its page flushed")
		}
	}
	for _, j := range []int{flushed, buffered} {
		set, fp, k, _ := obj(j)
		if _, _, ok, err := l.Lookup(set, fp, k); ok || err != nil {
			t.Fatalf("object %d found after Remove (err %v)", j, err)
		}
	}
	if got, want := l.Stats().LiveObjects, plain.Stats().LiveObjects-2; got != want {
		t.Fatalf("%d live objects after two removals, want %d", got, want)
	}
	dropped, err := l.ReleaseOldestZone()
	if err != nil {
		t.Fatal(err)
	}
	plainDropped, err := plain.ReleaseOldestZone()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != plainDropped-2 {
		t.Fatalf("release dropped %d objects, want the unremoved log's %d less the two removed", dropped, plainDropped)
	}
}
