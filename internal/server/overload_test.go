package server_test

// Overload-protection tests: the MaxConns cap under both policies, idle and
// slow-loris disconnects with their typed counters, the batch byte budget,
// the Shutdown/accept race pin, and the degraded-window acceptance test the
// circuit breaker is measured by.

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nemo/internal/core"
	"nemo/internal/device"
	"nemo/internal/flashsim"
	"nemo/internal/server"
)

// startServer builds a server and returns it plus a dialer that serves a
// fresh net.Pipe connection per call — unlike startPipeServer, tests can
// open several connections against one server and inspect its counters.
func startServer(t *testing.T, cfg server.Config) (*server.Server, func() net.Conn) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		wg.Wait()
		if err := cfg.Engine.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	})
	return srv, func() net.Conn {
		cli, sv := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeConn(sv)
		}()
		return cli
	}
}

// readStats issues the stats verb and parses the reply into a map. It must
// be the only in-flight request on the connection.
func readStats(t *testing.T, c net.Conn) map[string]uint64 {
	t.Helper()
	send(t, c, "stats\r\n")
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	one := make([]byte, 1)
	for !bytes.HasSuffix(buf, []byte("END\r\n")) {
		if _, err := c.Read(one); err != nil {
			t.Fatalf("reading stats: %v (got %q)", err, buf)
		}
		buf = append(buf, one[0])
	}
	m := make(map[string]uint64)
	for _, line := range strings.Split(string(buf), "\r\n") {
		var name string
		var v uint64
		if _, err := fmt.Sscanf(line, "STAT %s %d", &name, &v); err == nil {
			m[name] = v
		}
	}
	return m
}

func TestMaxConnsRejectBusy(t *testing.T) {
	eng, _ := newEngine(t, 1, 0)
	_, dial := startServer(t, server.Config{Engine: eng, MaxConns: 1, RejectBusy: true})

	c1 := dial()
	defer c1.Close()
	send(t, c1, "version\r\n")
	expect(t, c1, "VERSION nemo/1\r\n")

	// Over the cap: the second connection is answered busy and closed.
	c2 := dial()
	defer c2.Close()
	expect(t, c2, "SERVER_ERROR busy\r\n")
	expectEOF(t, c2)

	m := readStats(t, c1)
	if m["conns_rejected"] != 1 {
		t.Fatalf("conns_rejected = %d, want 1", m["conns_rejected"])
	}
	if m["curr_connections"] != 1 {
		t.Fatalf("curr_connections = %d, want 1", m["curr_connections"])
	}

	// The slot frees when the first connection quits; the next one serves.
	send(t, c1, "quit\r\n")
	expectEOF(t, c1)
	c3 := dial()
	defer c3.Close()
	send(t, c3, "version\r\n")
	expect(t, c3, "VERSION nemo/1\r\n")
}

func TestMaxConnsBlockBackpressure(t *testing.T) {
	eng, _ := newEngine(t, 1, 0)
	_, dial := startServer(t, server.Config{Engine: eng, MaxConns: 1})

	c1 := dial()
	defer c1.Close()
	send(t, c1, "version\r\n")
	expect(t, c1, "VERSION nemo/1\r\n")

	// The second connection's handler parks acquiring a slot: nothing
	// reads its pipe, so a deadline-bounded write cannot complete.
	c2 := dial()
	defer c2.Close()
	c2.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c2.Write([]byte("version\r\n")); err == nil {
		t.Fatal("write on an over-cap connection completed while the slot was held")
	}
	c2.SetWriteDeadline(time.Time{})

	// Quit the first connection: the slot frees and the parked handler
	// serves the second connection normally.
	send(t, c1, "quit\r\n")
	expectEOF(t, c1)
	send(t, c2, "version\r\n")
	expect(t, c2, "VERSION nemo/1\r\n")
}

func TestMaxConnsBlockUnblocksOnShutdown(t *testing.T) {
	eng, _ := newEngine(t, 1, 0)
	srv, err := server.New(server.Config{Engine: eng, MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	cli1, sv1 := net.Pipe()
	defer cli1.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.ServeConn(sv1)
	}()
	send(t, cli1, "version\r\n")
	expect(t, cli1, "VERSION nemo/1\r\n")

	// Parked waiting for a slot that will never free.
	cli2, sv2 := net.Pipe()
	defer cli2.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.ServeConn(sv2)
	}()

	// Shutdown must unblock the parked acquire, close the waiting
	// connection, and drain the served one.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	expectEOF(t, cli1)
	expectEOF(t, cli2)
}

func TestIdleTimeoutDisconnect(t *testing.T) {
	eng, _ := newEngine(t, 1, 0)
	_, dial := startServer(t, server.Config{Engine: eng, IdleTimeout: 50 * time.Millisecond})

	c1 := dial()
	defer c1.Close()
	send(t, c1, "version\r\n")
	expect(t, c1, "VERSION nemo/1\r\n")
	// Sit idle past the budget: the server cuts the connection.
	expectEOF(t, c1)

	c2 := dial()
	defer c2.Close()
	m := readStats(t, c2)
	if m["idle_disconnects"] != 1 || m["deadline_disconnects"] != 0 {
		t.Fatalf("disconnects = idle %d deadline %d, want 1/0",
			m["idle_disconnects"], m["deadline_disconnects"])
	}
}

func TestSlowLorisDisconnect(t *testing.T) {
	eng, _ := newEngine(t, 1, 0)
	_, dial := startServer(t, server.Config{
		Engine:      eng,
		IdleTimeout: 500 * time.Millisecond,
		ReadTimeout: 50 * time.Millisecond,
	})

	// A set whose data block trickles in and stalls: the per-read deadline
	// cuts it off well inside the idle budget, classified as a deadline
	// (slow-sender) disconnect.
	c1 := dial()
	defer c1.Close()
	send(t, c1, "set loris 0 0 64\r\nabc")
	start := time.Now()
	expectEOF(t, c1)
	if waited := time.Since(start); waited > 400*time.Millisecond {
		t.Fatalf("slow-loris survived %v, want the ~50ms read deadline", waited)
	}

	// A half-sent command line that stalls is also a request in flight.
	c2 := dial()
	defer c2.Close()
	send(t, c2, "get half-a-comm")
	expectEOF(t, c2)

	c3 := dial()
	defer c3.Close()
	m := readStats(t, c3)
	if m["deadline_disconnects"] != 2 || m["idle_disconnects"] != 0 {
		t.Fatalf("disconnects = deadline %d idle %d, want 2/0",
			m["deadline_disconnects"], m["idle_disconnects"])
	}
}

func TestBatchByteBudget(t *testing.T) {
	eng, _ := newEngine(t, 1, 0)
	// A budget smaller than any single set: every batch closes after one
	// buffered request, and the pipeline must still answer everything in
	// order.
	cli := startPipeServer(t, server.Config{Engine: eng, MaxBatchBytes: 1})
	defer cli.Close()

	var req, want strings.Builder
	for i := 0; i < 8; i++ {
		val := fmt.Sprintf("budget-value-%02d", i)
		fmt.Fprintf(&req, "set bk%d 0 0 %d\r\n%s\r\n", i, len(val), val)
		want.WriteString("STORED\r\n")
	}
	for i := 0; i < 8; i++ {
		val := fmt.Sprintf("budget-value-%02d", i)
		fmt.Fprintf(&req, "get bk%d\r\n", i)
		fmt.Fprintf(&want, "VALUE bk%d 0 %d\r\n%s\r\nEND\r\n", i, len(val), val)
	}
	send(t, cli, req.String())
	expect(t, cli, want.String())
}

// TestShutdownAcceptRace pins the fix for the accept/shutdown race: a
// connection accepted concurrently with Shutdown must either be served and
// drained or closed immediately — never handed to a handler registered
// after the drain pass (the old code's WaitGroup.Add could trail Wait).
// Run under -race this also catches the WaitGroup misuse itself.
func TestShutdownAcceptRace(t *testing.T) {
	eng, _ := newEngine(t, 1, 0)
	defer eng.Close()
	for i := 0; i < 50; i++ {
		srv, err := server.New(server.Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(l) }()

		var dialers sync.WaitGroup
		for j := 0; j < 4; j++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				c, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					return // listener already closed: fine
				}
				c.Write([]byte("version\r\n"))
				c.SetReadDeadline(time.Now().Add(time.Second))
				buf := make([]byte, 64)
				c.Read(buf) // reply, busy, or immediate close: all legal
				c.Close()
			}()
		}
		if err := srv.Shutdown(); err != nil {
			t.Fatalf("iter %d: shutdown: %v", i, err)
		}
		if err := <-serveDone; err != server.ErrServerClosed {
			t.Fatalf("iter %d: Serve returned %v, want ErrServerClosed", i, err)
		}
		dialers.Wait()
	}
}

// TestDegradedWindowAvailability is the acceptance test for the tentpole:
// a 30-second (virtual) total write outage trips the breaker, SETs are
// rejected with SERVER_ERROR degraded, GET availability through the outage
// stays at 100% (>= the 99% bar), and service recovers by itself once the
// device heals — all through the wire protocol, all on the virtual clock.
func TestDegradedWindowAvailability(t *testing.T) {
	const perData = 8
	perIdx := core.IndexZonesFor(perData, 4)
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: perData + perIdx})
	cfg := core.DefaultConfig(dev, perData)
	cfg.SGsPerIndexGroup = 4
	cfg.FlushThreshold = 1 << 20 // flushes in this test are explicit
	cfg.BreakerThreshold = 2
	cfg.BreakerProbeAfter = 5 * time.Second
	eng, err := core.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli := startPipeServer(t, server.Config{Engine: eng, MaxItemBytes: testMaxItem})
	defer cli.Close()

	// Populate through the protocol and land everything on flash while the
	// device is healthy.
	const n = 20
	val := func(i int) string { return fmt.Sprintf("avail-value-%04d", i) }
	for i := 0; i < n; i++ {
		v := val(i)
		send(t, cli, fmt.Sprintf("set ak%d 0 0 %d\r\n%s\r\n", i, len(v), v))
		expect(t, cli, "STORED\r\n")
	}
	if err := eng.Flush(); err != nil {
		t.Fatalf("pre-outage flush: %v", err)
	}

	// The outage begins: every device write fails for the next 30 virtual
	// seconds. Two failed flushes trip the breaker.
	plan := device.NewFaultPlan(9, device.FaultRule{Op: device.FaultWrite, ErrRate: 1})
	plan.Arm(dev)
	for i := 0; i < 2; i++ {
		if err := eng.Flush(); err == nil {
			t.Fatal("flush succeeded during the outage")
		}
	}

	// SETs are shed with the typed reply; the engine is not touched.
	v := val(0)
	send(t, cli, fmt.Sprintf("set shed 0 0 %d\r\n%s\r\n", len(v), v))
	expect(t, cli, "SERVER_ERROR degraded\r\n")

	// GET availability through the outage: every flash-resident key keeps
	// serving. 100 requests, zero failures.
	served, total := 0, 0
	for round := 0; round < 5; round++ {
		for i := 0; i < n; i++ {
			total++
			want := val(i)
			send(t, cli, fmt.Sprintf("get ak%d\r\n", i))
			expect(t, cli, fmt.Sprintf("VALUE ak%d 0 %d\r\n%s\r\nEND\r\n", i, len(want), want))
			served++
		}
		dev.Clock().Advance(6 * time.Second) // 30s across the window
	}
	if avail := float64(served) / float64(total); avail < 0.99 {
		t.Fatalf("GET availability %.4f during outage, want >= 0.99", avail)
	}

	// Devices heal; the next SET is the half-open probe and recovery is
	// automatic — no operator action, no restart.
	plan.Disarm()
	send(t, cli, fmt.Sprintf("set recovered 0 0 %d\r\n%s\r\n", len(v), v))
	expect(t, cli, "STORED\r\n")
	if err := eng.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}

	m := readStats(t, cli)
	if m["engine_breaker_open"] != 0 {
		t.Fatalf("engine_breaker_open = %d after recovery, want 0", m["engine_breaker_open"])
	}
	if m["engine_degraded_entered"] != 1 {
		t.Fatalf("engine_degraded_entered = %d, want 1", m["engine_degraded_entered"])
	}
	if got := m["engine_degraded_seconds"]; got != 30 {
		t.Fatalf("engine_degraded_seconds = %d, want 30", got)
	}
	if m["engine_degraded_rejects"] == 0 {
		t.Fatal("engine_degraded_rejects = 0, want the shed SET counted")
	}
	if m["engine_write_errors"] != 2 {
		t.Fatalf("engine_write_errors = %d, want 2", m["engine_write_errors"])
	}
	// The resident-memory ledger follows the engine rows, and is the engine's.
	r := eng.Readout()
	for _, f := range r.Fields() {
		if got, ok := m[f.Name]; !ok || got != f.Value {
			t.Errorf("stats row %s = %d (present: %v), want the ledger's %d", f.Name, got, ok, f.Value)
		}
	}
	if r.Total() == 0 || m["resident_total_bytes"] != r.PaperMeta()+r.WriteBuffers+r.FlushKits {
		t.Errorf("resident_total_bytes = %d, want the three parts' sum %d", m["resident_total_bytes"], r.PaperMeta()+r.WriteBuffers+r.FlushKits)
	}
	if idx := r.PBFGCache + r.GroupBuffers + r.SGMeta; idx == 0 || m["resident_paper_meta_bytes"] != idx {
		t.Errorf("resident_paper_meta_bytes = %d, want the index layer's three parts' sum %d", m["resident_paper_meta_bytes"], idx)
	}
}
