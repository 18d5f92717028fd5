package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"

	"nemo"
	"nemo/internal/server"
)

// system is the system under test, assembled the way cmd/nemoserve
// assembles it: a file-backed device image, the sharded engine on it, and —
// for the wire workloads — the memcached server on a loopback listener with
// one connection per client. With a tracer, tracedDevice sits between engine
// and device and tracedEngine between server (or library caller) and engine.
type system struct {
	spec     sutSpec
	dir      string
	snapshot string // where the restart ledger checkpoints; unused otherwise

	raw   *nemo.FileDevice
	cache *nemo.ShardedCache
	eng   nemo.EngineV2 // cache, or tracedEngine around it

	srv      *server.Server
	serveErr chan error
	conns    []net.Conn
}

func (s *system) imagePath() string { return filepath.Join(s.dir, "device.img") }

// openDevice opens the image. Persist is always on so the traced run's
// restart ledger can reopen a cleanly closed image warm; it costs one
// superblock invalidation before the first append.
func (s *system) openDevice() (*nemo.FileDevice, error) {
	return nemo.OpenFileDevice(nemo.FileDeviceConfig{
		Path:         s.imagePath(),
		PageSize:     s.spec.PageSize,
		PagesPerZone: s.spec.PagesPerZone,
		Zones:        s.spec.Shards * (s.spec.DataZones + nemo.IndexZonesFor(s.spec.DataZones, sgsPerIndexGroup)),
		Persist:      true,
	})
}

// engineConfig is nemo.DefaultConfig with nemoserve's settings.
func (s *system) engineConfig(dev nemo.Device) nemo.Config {
	cfg := nemo.DefaultConfig(dev, s.spec.Shards*s.spec.DataZones)
	cfg.Shards = s.spec.Shards
	cfg.Flushers = s.spec.Flushers
	cfg.BreakerThreshold = s.spec.BreakerThreshold
	cfg.WriteRetries = s.spec.WriteRetries
	cfg.RetryBackoff = s.spec.RetryBackoff
	return cfg
}

// openSystem builds the system in a fresh directory under base. On error
// everything already opened is closed and removed.
func openSystem(base string, spec sutSpec, wire bool, tr *tracer) (sys *system, err error) {
	dir, err := os.MkdirTemp(base, "sut-*")
	if err != nil {
		return nil, err
	}
	s := &system{spec: spec, dir: dir, snapshot: filepath.Join(dir, "index.snap")}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.raw, err = s.openDevice(); err != nil {
		return nil, err
	}
	var dev nemo.Device = s.raw
	if tr != nil {
		dev = tracedDevice{s.raw, tr}
	}
	if s.cache, err = nemo.NewSharded(s.engineConfig(dev)); err != nil {
		return nil, err
	}
	s.eng = s.cache
	if tr != nil {
		s.eng = tracedEngine{s.cache, tr}
	}
	if !wire {
		return s, nil
	}
	srv, err := server.New(server.Config{
		Engine:       s.eng,
		MaxItemBytes: spec.PageSize - setBlockHeader - setEntryOverhead,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv, s.serveErr = srv, make(chan error, 1)
	go func() { s.serveErr <- srv.Serve(ln) }()
	for i := 0; i < nConns; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		s.conns = append(s.conns, nc)
	}
	return s, nil
}

// stopServer closes the client connections and drains the server; the engine
// and device stay open. Idempotent.
func (s *system) stopServer() error {
	for _, nc := range s.conns {
		nc.Close()
	}
	s.conns = nil
	if s.srv == nil {
		return nil
	}
	err := s.srv.Shutdown()
	if serr := <-s.serveErr; !errors.Is(serr, server.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv = nil
	return err
}

// closeEngine closes the engine and then the device (engines never close
// their device).
func (s *system) closeEngine() error {
	var first error
	if s.cache != nil {
		first = s.cache.Close()
		s.cache = nil
	}
	if s.raw != nil {
		if err := s.raw.Close(); err != nil && first == nil {
			first = err
		}
		s.raw = nil
	}
	return first
}

// close tears the whole system down and deletes its directory, image and
// snapshot included. Safe on a partly built system; returns the first error.
func (s *system) close() error {
	first := s.stopServer()
	if err := s.closeEngine(); err != nil && first == nil {
		first = err
	}
	if err := os.RemoveAll(s.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// reopenWarm closes engine and device and builds them again from the image
// and the snapshot at s.snapshot — the restart a drained nemoserve performs.
func (s *system) reopenWarm() error {
	if err := s.closeEngine(); err != nil {
		return err
	}
	var err error
	if s.raw, err = s.openDevice(); err != nil {
		return err
	}
	cfg := s.engineConfig(s.raw)
	cfg.SnapshotPath = s.snapshot
	if s.cache, err = nemo.NewSharded(cfg); err != nil {
		return err
	}
	s.eng = s.cache
	if restored, rerr := s.cache.RestoreOutcome(); !restored {
		return fmt.Errorf("benchmark: warm restart refused the snapshot: %v", rerr)
	}
	return nil
}
