// Command nemoserve runs the Nemo cache as a memcached-text-protocol
// network service on a zoned flash device — the simulator by default, or a
// file-backed real device via -device file:<path>.
//
// Usage:
//
//	nemoserve [-addr 127.0.0.1:11211] [-shards 8] [-zones 48]
//	          [-flushers 2] [-max-batch 64]
//	          [-max-conns 0] [-reject-busy] [-idle-timeout 0] [-read-timeout 0]
//	          [-degraded-threshold 3] [-degraded-probe 1s]
//	          [-write-retries 2] [-retry-backoff 2ms]
//	          [-device sim|file:<path>]
//	          [-snapshot <path>] [-snapshot-every 30s]
//
// The server speaks the protocol subset documented in the package docs
// (get/gets multi-key, set, delete, stats, version, quit, noreply):
// pipelined gets coalesce into batched engine rounds, every SET is one
// SetAsync, and SIGINT/SIGTERM trigger the graceful drain (stop accepting, answer in-flight batches, Drain the
// engine) before exit. The repository benchmark (benchmark/README.md) drives
// the same serving stack over loopback on its get_fits, write_churn and
// twitter_mix workloads.
//
// -flushers decides what STORED means. With K > 0 background flushers a full
// SG flushes off the request path and STORED means accepted: a failed flush
// surfaces in the engine_write_errors stat and at drain. -flushers 0 runs
// every flush inline on the connection that triggered it, so STORED means
// stored, and a failed flush answers SERVER_ERROR to the set that ran it.
//
// Overload protection: -max-conns caps concurrent connections (0 =
// unlimited) — excess dials park in the accept queue, or are answered
// `SERVER_ERROR busy` and closed with -reject-busy. -idle-timeout drops
// connections with no new request batch; -read-timeout bounds each read
// inside a request (the slow-loris defense).
//
// The device-fault circuit breaker is ON by default in nemoserve
// (-degraded-threshold 3): that many consecutive flush failures flip the
// affected shard to read-only degraded mode — SETs and DELETEs answer
// `SERVER_ERROR degraded`, GETs keep serving — and every -degraded-probe
// of device time one probe write is admitted to test recovery. Set
// -degraded-threshold 0 to disable. -write-retries/-retry-backoff bound
// in-place append retries beneath the breaker. SIGQUIT dumps the server
// counters and each shard's breaker state to stderr without disturbing
// service.
//
// -snapshot enables warm restart: the device is opened persistently (file
// backend; the simulator is volatile, so every sim restart is cold), boot
// adopts the snapshot when it still matches the device, the graceful drain
// checkpoints back to it, and -snapshot-every adds periodic checkpoints in
// between. A missing, corrupt, or stale snapshot is reported and the server
// simply starts cold — snapshots are strictly throwaway.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nemo/internal/backend"
	"nemo/internal/core"
	"nemo/internal/device"
	"nemo/internal/server"
	"nemo/internal/setblock"
)

func main() {
	os.Exit(run())
}

// dumpHealth writes the on-demand SIGQUIT health report: the server's
// protocol counters, then each shard's breaker from its Readout (degraded
// time in whole seconds). Service continues undisturbed.
func dumpHealth(w io.Writer, srv *server.Server, cache *core.Sharded) {
	fmt.Fprintf(w, "nemoserve: health dump (%s)\n", time.Now().Format(time.RFC3339))
	for _, f := range srv.Fields() {
		fmt.Fprintf(w, "  server %-22s %d\n", f.Name, f.Value)
	}
	for i := 0; i < cache.NumShards(); i++ {
		r := cache.Shard(i).Readout()
		line := fmt.Sprintf("  shard %d: %s fails=%d degraded_entered=%d degraded=%ds retries=%d",
			i, r.Breaker, r.ConsecutiveFails, r.DegradedEntered, r.DegradedSeconds, r.WriteRetries)
		if r.LastWriteErr != "" {
			line += fmt.Sprintf(" last_err=%q", r.LastWriteErr)
		}
		fmt.Fprintln(w, line)
	}
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "listen address")
		shards    = flag.Int("shards", 8, "cache shards (data zones must divide evenly)")
		zones     = flag.Int("zones", 48, "total SG-pool data zones across shards")
		flushers  = flag.Int("flushers", 2, "background flusher goroutines (0 = flush inline: STORED means stored)")
		maxBatch  = flag.Int("max-batch", 64, "pipelined requests coalesced per engine round")
		maxConns  = flag.Int("max-conns", 0, "max concurrent connections (0 = unlimited)")
		rejBusy   = flag.Bool("reject-busy", false, "answer SERVER_ERROR busy at the cap instead of parking accepts")
		idleTO    = flag.Duration("idle-timeout", 0, "drop connections idle between request batches this long (0 = never)")
		readTO    = flag.Duration("read-timeout", 0, "per-read deadline inside a request, the slow-loris bound (0 = none)")
		degThresh = flag.Int("degraded-threshold", 3, "consecutive flush failures that trip a shard read-only (0 = breaker off)")
		degProbe  = flag.Duration("degraded-probe", time.Second, "device-clock interval between recovery probes while degraded")
		wrRetries = flag.Int("write-retries", 2, "in-place retries of a failed page append (0 = none)")
		wrBackoff = flag.Duration("retry-backoff", 2*time.Millisecond, "base delay between append retries, doubling per attempt")
		devStr    = flag.String("device", "sim", "device backend: sim, or file:<path> (file-backed real device)")
		snapPath  = flag.String("snapshot", "", "warm-restart snapshot path (restore on boot, checkpoint on drain)")
		snapEvery = flag.Duration("snapshot-every", 0, "periodic checkpoint interval (0 = only on drain; needs -snapshot)")
	)
	flag.Parse()

	// Flag values that are wrong on their face or that NewSharded would
	// refuse are usage errors here, before the device is opened: a
	// persistent image would otherwise be left behind.
	var bad string
	switch {
	case *snapEvery < 0:
		bad = fmt.Sprintf("-snapshot-every %v is negative", *snapEvery)
	case *snapEvery > 0 && *snapPath == "":
		bad = "-snapshot-every needs -snapshot"
	case *shards < 1 || *zones%*shards != 0:
		bad = fmt.Sprintf("%d data zones not divisible by %d shards", *zones, *shards)
	case *zones / *shards < 2:
		bad = fmt.Sprintf("%d data zones per shard, need at least 2", *zones / *shards)
	case *flushers < 0 || *wrRetries < 0 || *degThresh < 0:
		bad = "-flushers, -write-retries and -degraded-threshold must not be negative"
	case *degProbe < 0 || *wrBackoff < 0:
		bad = "-degraded-probe and -retry-backoff must not be negative"
	}
	if bad != "" {
		fmt.Fprintln(os.Stderr, "nemoserve:", bad)
		flag.Usage()
		return 2
	}
	spec, err := backend.Parse(*devStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nemoserve:", err)
		return 2
	}
	const pageSize = 4096
	geom := device.Geometry{
		PageSize:     pageSize,
		PagesPerZone: 256,
		Zones:        core.DeviceZonesFor(*zones, *shards),
	}
	open := spec.Open
	if *snapPath != "" {
		open = spec.OpenPersistent
	}
	dev, err := open(geom)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nemoserve:", err)
		return 1
	}
	defer dev.Close()
	cfg := core.DefaultConfig(dev, *zones)
	cfg.Shards = *shards
	cfg.Flushers = *flushers
	cfg.SnapshotPath = *snapPath
	cfg.BreakerThreshold = *degThresh
	cfg.BreakerProbeAfter = *degProbe
	cfg.WriteRetries = *wrRetries
	cfg.RetryBackoff = *wrBackoff
	bootStart := time.Now()
	cache, err := core.NewSharded(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nemoserve:", err)
		return 1
	}
	// With -snapshot, Close is the checkpoint (cfg.SnapshotPath is set). The
	// drain path below runs it once, timed and checked; every earlier return
	// leaves it to this deferred call.
	drained := false
	defer func() {
		if !drained {
			cache.Close()
		}
	}()
	if *snapPath != "" {
		switch restored, rerr := cache.RestoreOutcome(); {
		case restored:
			st := cache.Stats()
			fmt.Printf("nemoserve: warm restart from %s in %d ms (gets=%d hits=%d sets=%d)\n",
				*snapPath, time.Since(bootStart).Milliseconds(), st.Gets, st.Hits, st.Sets)
		case rerr != nil:
			fmt.Printf("nemoserve: snapshot refused (%v) — cold start\n", rerr)
		default:
			fmt.Printf("nemoserve: no snapshot at %s — cold start\n", *snapPath)
		}
	}

	srv, err := server.New(server.Config{
		Engine:      cache,
		MaxBatch:    *maxBatch,
		MaxConns:    *maxConns,
		RejectBusy:  *rejBusy,
		IdleTimeout: *idleTO,
		ReadTimeout: *readTO,
		// Exactly the engine's per-object capacity: key + stored value
		// (data plus the item envelope) must fit one set page.
		MaxItemBytes: setblock.MaxObjectBytes(pageSize),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nemoserve:", err)
		return 1
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nemoserve:", err)
		return 1
	}
	fmt.Printf("nemoserve: listening on %s (%d shards, %d data zones, %d flushers, device=%s)\n",
		l.Addr(), *shards, *zones, *flushers, spec)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			dumpHealth(os.Stderr, srv, cache)
		}
	}()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	var stopSnap chan struct{}
	if *snapEvery > 0 {
		stopSnap = make(chan struct{})
		go func() {
			t := time.NewTicker(*snapEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := cache.Checkpoint(*snapPath); err != nil {
						fmt.Fprintln(os.Stderr, "nemoserve: checkpoint:", err)
					}
				case <-stopSnap:
					return
				}
			}
		}()
	}

	select {
	case s := <-sig:
		fmt.Printf("nemoserve: %v — draining\n", s)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "nemoserve:", err)
		return 1
	}
	if stopSnap != nil {
		close(stopSnap)
	}
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "nemoserve: drain:", err)
		return 1
	}
	st := cache.Stats()
	drained = true
	t0 := time.Now()
	if err := cache.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "nemoserve: close:", err)
		return 1
	}
	if *snapPath != "" {
		fmt.Printf("nemoserve: checkpointed to %s in %d ms\n", *snapPath, time.Since(t0).Milliseconds())
	}
	fmt.Printf("nemoserve: drained (gets=%d hits=%d sets=%d deletes=%d rderr=%d wrerr=%d)\n",
		st.Gets, st.Hits, st.Sets, st.Deletes, st.ReadErrors, st.WriteErrors)
	return 0
}
