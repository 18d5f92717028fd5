package server_test

import (
	"io"
	"net"
	"testing"
	"time"

	"nemo/internal/core"
	"nemo/internal/device"
	"nemo/internal/devtest"
	"nemo/internal/flashsim"
	"nemo/internal/server"
)

// testMaxItem mirrors the engine capacity of the small test geometry
// below: key + stored value must fit a 512-byte set page minus the block
// header and entry overhead.
const testMaxItem = 512 - 4 - 11

// newEngine builds a small sharded Nemo (512 B sets, 8 data zones per
// shard — the core package's own test geometry) on a fresh simulated
// device, returning the device for fault injection.
func newEngine(t testing.TB, shards, flushers int) (*core.Sharded, device.Device) {
	t.Helper()
	const perData = 8
	perIdx := core.IndexZonesFor(perData, 4)
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: shards * (perData + perIdx)})
	return engineOn(t, dev, shards, flushers), dev
}

// newEngineOn is newEngine on an arbitrary device backend: the drain fault
// suite runs per backend through devtest.Run, so the served error surface
// is pinned on the real file-backed device too.
func newEngineOn(t *testing.T, b devtest.Backend, shards, flushers int) (*core.Sharded, device.Device) {
	t.Helper()
	const perData = 8
	perIdx := core.IndexZonesFor(perData, 4)
	dev := b.New(t, device.Geometry{PageSize: 512, PagesPerZone: 16, Zones: shards * (perData + perIdx)})
	return engineOn(t, dev, shards, flushers), dev
}

func engineOn(t testing.TB, dev device.Device, shards, flushers int) *core.Sharded {
	t.Helper()
	cfg := core.DefaultConfig(dev, 8*shards)
	cfg.Shards = shards
	cfg.Flushers = flushers
	cfg.SGsPerIndexGroup = 4
	cfg.FlushThreshold = 8
	c, err := core.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startPipeServer serves one net.Pipe connection — the full protocol
// stack, no ports — returning the client end. Cleanup shuts the server
// down and closes the engine.
func startPipeServer(t testing.TB, cfg server.Config) net.Conn {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, sv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(sv)
	}()
	t.Cleanup(func() {
		cli.Close()
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
		if err := cfg.Engine.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	})
	return cli
}

// send writes a raw request chunk, failing the test on error.
func send(t *testing.T, c net.Conn, data string) {
	t.Helper()
	c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte(data)); err != nil {
		t.Fatalf("send %q: %v", data, err)
	}
}

// expect reads exactly len(want) reply bytes and compares byte-for-byte.
func expect(t *testing.T, c net.Conn, want string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, len(want))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("reading %q: %v (got %q)", want, err, buf)
	}
	if string(buf) != want {
		t.Fatalf("reply mismatch:\n got  %q\n want %q", buf, want)
	}
}

// expectEOF asserts the server closed the connection.
func expectEOF(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if n, err := c.Read(one[:]); err != io.EOF {
		t.Fatalf("want EOF, got n=%d err=%v", n, err)
	}
}
