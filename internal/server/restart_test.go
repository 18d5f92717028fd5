package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"nemo/internal/core"
	"nemo/internal/filedev"
	"nemo/internal/memclient"
	"nemo/internal/server"
	"nemo/internal/snapshot"
)

// TestWarmRestartAcrossProcessBoundary is the serving-layer end of the
// warm-restart contract: a memcached-protocol server over a Persist-mode
// file device is populated, drained, and torn all the way down (engine
// checkpoint, device superblock flush); a second server stack built from
// nothing but the two on-disk artifacts — the image and the snapshot — must
// answer gets for the stored keys and report the first life's engine_
// counters through the stats verb. This is what nemoserve does across a
// real process restart; the test performs the identical open sequence in
// one process.
func TestWarmRestartAcrossProcessBoundary(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "nemo.img")
	snap := filepath.Join(dir, "nemo.snap")
	const shards = 2

	open := func() (*core.Sharded, *filedev.Device) {
		perIdx := core.IndexZonesFor(8, 4)
		dev, err := filedev.Open(filedev.Config{
			Path:         img,
			PageSize:     512,
			PagesPerZone: 16,
			Zones:        shards * (8 + perIdx),
			Persist:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(dev, 8*shards)
		cfg.Shards = shards
		cfg.SGsPerIndexGroup = 4
		cfg.FlushThreshold = 8
		cfg.SnapshotPath = snap
		eng, err := core.NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng, dev
	}

	serve := func(eng *core.Sharded) (*server.Server, net.Conn, <-chan error) {
		srv, err := server.New(server.Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		l, served := servePipes(srv, nil)
		return srv, l.dial(), served
	}

	// First life: populate over the wire, collect stats, tear down in the
	// nemoserve order — server drain, engine close (checkpoints), device
	// close (superblock).
	eng1, dev1 := open()
	if restored, _ := eng1.RestoreOutcome(); restored {
		t.Fatal("first life restored from nothing")
	}
	srv1, cli1, done1 := serve(eng1)
	cl := memclient.New(cli1)
	const keys = 400
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%04d-%032d", i, i)) }
	for i := 0; i < keys; i++ {
		if err := cl.Set(drainKey(i), val(i), 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	for i := 0; i < keys; i += 3 {
		if _, _, _, err := cl.Get(drainKey(i)); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	stats1, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cli1.Close()
	if err := srv1.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done1
	if err := eng1.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	if err := dev1.Close(); err != nil {
		t.Fatalf("device close: %v", err)
	}

	// Second life: only the image and the snapshot exist now.
	eng2, dev2 := open()
	defer dev2.Close()
	if !dev2.Restored() {
		t.Fatal("device did not warm-open from its superblock")
	}
	restored, rerr := eng2.RestoreOutcome()
	if !restored {
		t.Fatalf("engine did not adopt the snapshot: %v", rerr)
	}
	srv2, cli2, done2 := serve(eng2)
	defer func() {
		cli2.Close()
		if err := srv2.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done2
		if err := eng2.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	}()
	cl2 := memclient.New(cli2)

	// The first life's engine counters survived the restart.
	stats2, err := cl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"engine_gets", "engine_hits", "engine_sets", "engine_logical_bytes"} {
		if stats2[k] != stats1[k] {
			t.Errorf("%s = %d after restart, want %d", k, stats2[k], stats1[k])
		}
	}

	// And so did the data: every key the first life stored still answers.
	// (Capacity evicts some of the 400 under this tiny geometry, so the pin
	// is on recent keys — the buffered tail plus the newest flushed SGs —
	// and on overall hit count, not every key.)
	hits := 0
	for i := 0; i < keys; i++ {
		data, _, found, err := cl2.Get(drainKey(i))
		if err != nil {
			t.Fatalf("get %d after restart: %v", i, err)
		}
		if found {
			hits++
			if !bytes.Equal(data, val(i)) {
				t.Fatalf("key %d came back corrupted after restart", i)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no first-life key survived the restart")
	}
	for i := keys - 8; i < keys; i++ {
		if _, _, found, err := cl2.Get(drainKey(i)); err != nil || !found {
			t.Fatalf("recent key %d lost across restart (err=%v)", i, err)
		}
	}
}

// TestCrashMidCheckpointWarmRestart is the crash-mid-checkpoint torture at
// the serving layer: a periodic checkpoint (nemoserve -snapshot-every) dies
// between writing its temp file and renaming it into place, leaving a stale
// .tmp dropping beside the still-intact previous snapshot. The serving
// stack must shrug — the engine keeps serving, the clean drain checkpoints
// over the old snapshot, and the next boot warm-restarts with the orphan
// still sitting in the directory.
func TestCrashMidCheckpointWarmRestart(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "nemo.img")
	snap := filepath.Join(dir, "nemo.snap")
	const shards = 2

	open := func() (*core.Sharded, *filedev.Device) {
		perIdx := core.IndexZonesFor(8, 4)
		dev, err := filedev.Open(filedev.Config{
			Path:         img,
			PageSize:     512,
			PagesPerZone: 16,
			Zones:        shards * (8 + perIdx),
			Persist:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(dev, 8*shards)
		cfg.Shards = shards
		cfg.SGsPerIndexGroup = 4
		cfg.FlushThreshold = 8
		cfg.SnapshotPath = snap
		eng, err := core.NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng, dev
	}

	// First life: populate, take one good periodic checkpoint, then have
	// the next one crash at the injection point.
	eng1, dev1 := open()
	srv1, err := server.New(server.Config{Engine: eng1})
	if err != nil {
		t.Fatal(err)
	}
	l1, done1 := servePipes(srv1, nil)
	cli1 := l1.dial()
	cl := memclient.New(cli1)
	const keys = 120
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%04d-%032d", i, i)) }
	for i := 0; i < keys/2; i++ {
		if err := cl.Set(drainKey(i), val(i), 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	if err := eng1.Checkpoint(snap); err != nil {
		t.Fatalf("good checkpoint: %v", err)
	}

	for i := keys / 2; i < keys; i++ {
		if err := cl.Set(drainKey(i), val(i), 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	crash := errors.New("crash injected before rename")
	var orphan string
	snapshot.BeforeRename = func(p string) error { orphan = p; return crash }
	err = eng1.Checkpoint(snap)
	snapshot.BeforeRename = nil
	if !errors.Is(err, crash) {
		t.Fatalf("crashed checkpoint returned %v, want the injected crash", err)
	}
	if orphan == "" {
		t.Fatal("injection point never reached")
	}

	// Service continues through the failed checkpoint, then drains cleanly
	// (the drain checkpoint overwrites the stale snapshot).
	for i := 0; i < keys; i += 5 {
		if _, _, _, err := cl.Get(drainKey(i)); err != nil {
			t.Fatalf("get %d after failed checkpoint: %v", i, err)
		}
	}
	cli1.Close()
	if err := srv1.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done1
	if err := eng1.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	if err := dev1.Close(); err != nil {
		t.Fatalf("device close: %v", err)
	}

	// Second life boots with the orphan .tmp still in the directory and
	// must warm-restart from the drain checkpoint regardless.
	matches, err := filepath.Glob(snap + ".tmp*")
	if err != nil || len(matches) == 0 {
		t.Fatalf("stale temp file gone before restart (matches=%v err=%v)", matches, err)
	}
	eng2, dev2 := open()
	defer dev2.Close()
	if restored, rerr := eng2.RestoreOutcome(); !restored {
		t.Fatalf("engine did not adopt the snapshot: %v", rerr)
	}
	srv2, err := server.New(server.Config{Engine: eng2})
	if err != nil {
		t.Fatal(err)
	}
	l2, done2 := servePipes(srv2, nil)
	cli2 := l2.dial()
	defer func() {
		cli2.Close()
		if err := srv2.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done2
		if err := eng2.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	}()
	cl2 := memclient.New(cli2)
	hits := 0
	for i := 0; i < keys; i++ {
		data, _, found, err := cl2.Get(drainKey(i))
		if err != nil {
			t.Fatalf("get %d after restart: %v", i, err)
		}
		if found {
			hits++
			if !bytes.Equal(data, val(i)) {
				t.Fatalf("key %d came back corrupted after restart", i)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no first-life key survived the restart")
	}
	for i := keys - 8; i < keys; i++ {
		if _, _, found, err := cl2.Get(drainKey(i)); err != nil || !found {
			t.Fatalf("recent key %d lost across restart (err=%v)", i, err)
		}
	}
}
