package main

import (
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// smokeSUT is the system under test at about 1/100 of the pool: same shard
// count and settings, 16-page zones, 12 data zones per shard (3 MiB pool).
func smokeSUT() sutSpec {
	s := paperSUT
	s.PagesPerZone = 16
	s.DataZones = 12
	return s
}

// smokeConfig shrinks a workload's key space and prefill to 1/100.
func smokeConfig(wl workload, base string) runConfig {
	wl.Keys = wl.Keys / 100 / nConns * nConns
	wl.Prefill = wl.Prefill / 100 / nConns * nConns
	return runConfig{
		wl: wl, sut: smokeSUT(), seed: 7, iters: 300, setups: 1, base: base,
		censusKeys: 2000, restartKeys: 500,
	}
}

// fileBlocks is the disk blocks the (sparse) file at path occupies.
func fileBlocks(path string) int64 {
	var st syscall.Stat_t
	if syscall.Stat(path, &st) != nil {
		return 0
	}
	return st.Blocks
}

func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind: %s", e.Name())
	}
}

// TestSmokeEveryWorkload runs every workload in both modes at 1/100 scale:
// every named metric is measured and finite, no operation fails, and no
// image or snapshot outlives the run.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			base := t.TempDir()
			cfg := smokeConfig(wl, base)

			r, err := measureEndToEnd(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.checkComplete(endToEnd); err != nil {
				t.Error(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("untraced: %d of %d commands failed", r.Failed, r.Attempted)
			}
			for _, d := range endToEnd {
				if r.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, r.Metrics[d.Name])
				}
			}
			assertEmptyDir(t, base)

			spans := filepath.Join(t.TempDir(), "spans.tsv")
			r, err = measurePerLayer(context.Background(), cfg, spans)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.checkComplete(perLayer); err != nil {
				t.Error(err)
			}
			if r.Failed != 0 || r.Metrics["failed_share"] != 0 {
				t.Errorf("traced: %d of %d commands failed", r.Failed, r.Attempted)
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			// The workloads reach the layers they are for.
			if wl.Wire {
				if r.Metrics["core.get_calls"] != 0 || r.Metrics["core.getmany_calls"] == 0 {
					t.Errorf("a wire workload must reach the engine through GetMany only: get %v getmany %v",
						r.Metrics["core.get_calls"], r.Metrics["core.getmany_calls"])
				}
			} else if r.Metrics["server.self_us_per_req"] != 0 || r.Metrics["core.get_calls"] == 0 {
				t.Errorf("lib_direct must record no server time and call Get: self %v get %v",
					r.Metrics["server.self_us_per_req"], r.Metrics["core.get_calls"])
			}
			if r.Metrics["snapshot.hit_retention"] <= 0 {
				t.Errorf("snapshot.hit_retention = %v", r.Metrics["snapshot.hit_retention"])
			}
			assertEmptyDir(t, base)
		})
	}
}

// TestSmokeCleansUpAfterFailure forces a mid-run failure — the run is
// cancelled while its clients are in the timed window — and checks the image
// is gone all the same.
func TestSmokeCleansUpAfterFailure(t *testing.T) {
	for _, name := range []string{wlWriteChurn, wlLibDirect} {
		t.Run(name, func(t *testing.T) {
			wl, _ := workloadByName(name)
			base := t.TempDir()
			cfg := smokeConfig(wl, base)
			cfg.iters = 1 << 30 // never finishes by itself
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				// Cancel once the image has been written to, i.e. the clients
				// are at work.
				for ctx.Err() == nil {
					m, _ := filepath.Glob(filepath.Join(base, "sut-*", "device.img"))
					if len(m) > 0 && fileBlocks(m[0])*512 > 1<<20 {
						cancel()
					}
					time.Sleep(time.Millisecond)
				}
			}()
			if _, err := measureEndToEnd(ctx, cfg); err == nil {
				t.Fatal("a cancelled run reported success")
			}
			cancel()
			assertEmptyDir(t, base)
		})
	}
}
