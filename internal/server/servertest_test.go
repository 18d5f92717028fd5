package server_test

import (
	"io"
	"net"
	"sync"
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

// pipeListener is an in-memory net.Listener, so tests reach the server
// through Serve — the accept loop nemoserve runs, MaxConns policy and all —
// without ports: dial queues the server end of a fresh net.Pipe for Accept
// and returns the client end, and Close closes every server end not yet
// accepted, as closing a real listener resets its backlog.
type pipeListener struct {
	// accept, when non-nil, sees each server end as Accept takes it and
	// returns what Accept returns.
	accept func(net.Conn) (net.Conn, error)
	// backlog holds dialed server ends until Accept takes them; 16 is more
	// than any test dials ahead of the accept loop.
	backlog chan net.Conn
	mu      sync.Mutex // orders dial's queueing against Close
	done    chan struct{}
}

// servePipes runs srv.Serve on a fresh pipeListener; the channel yields
// what Serve returned.
func servePipes(srv *server.Server, accept func(net.Conn) (net.Conn, error)) (*pipeListener, <-chan error) {
	l := &pipeListener{accept: accept, backlog: make(chan net.Conn, 16), done: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	return l, served
}

func (l *pipeListener) dial() net.Conn {
	cli, sv := net.Pipe()
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.done:
		sv.Close()
	default:
		select {
		case l.backlog <- sv:
		default:
			panic("pipeListener: backlog full")
		}
	}
	return cli
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.backlog:
		if l.accept != nil {
			return l.accept(nc)
		}
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.done:
		return net.ErrClosed
	default:
	}
	close(l.done)
	for {
		select {
		case nc := <-l.backlog:
			nc.Close()
		default:
			return nil
		}
	}
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// startServer serves cfg on a pipeListener and returns the server plus its
// dialer, so a test can open several connections against one server and
// inspect its counters. Cleanup shuts the server down and closes the
// engine.
func startServer(t testing.TB, cfg server.Config) (*server.Server, func() net.Conn) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, served := servePipes(srv, nil)
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != server.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
		if err := cfg.Engine.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	})
	return srv, l.dial
}

// startPipeServer serves one connection — the full protocol stack, no
// ports — returning the client end, which cleanup closes before the
// server shuts down.
func startPipeServer(t testing.TB, cfg server.Config) net.Conn {
	t.Helper()
	_, dial := startServer(t, cfg)
	cli := dial()
	t.Cleanup(func() { cli.Close() })
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
