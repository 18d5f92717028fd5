package server_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nemo/internal/devtest"
	"nemo/internal/memclient"
	"nemo/internal/server"
)

func drainKey(i int) []byte { return []byte(fmt.Sprintf("drain-key-%04d", i)) }

func drainData(i int) []byte {
	d := make([]byte, 20)
	for j := range d {
		d[j] = byte('A' + (i+j)%26)
	}
	return d
}

// TestGracefulDrainNoStoredLost pins the shutdown contract of the async set
// path: every set the server answered with STORED was accepted by the
// engine, and Shutdown's Drain flushes whatever of it is still in a memory
// SG — so after Shutdown completes, every STORED key is readable straight
// off the engine. The workload is sized well under the test geometry's
// capacity so a lost item cannot hide behind legitimate eviction (the
// Evictions counter is asserted zero to keep the test honest if the
// geometry ever changes).
func TestGracefulDrainNoStoredLost(t *testing.T) {
	const nKeys, batch = 200, 32
	eng, _ := newEngine(t, 2, 2)
	defer eng.Close()
	srv, err := server.New(server.Config{Engine: eng, MaxItemBytes: testMaxItem})
	if err != nil {
		t.Fatal(err)
	}
	l, served := servePipes(srv, nil)
	cli := l.dial()
	defer cli.Close()

	cl := memclient.New(cli)
	for base := 0; base < nKeys; base += batch {
		for i := base; i < base+batch && i < nKeys; i++ {
			cl.QueueSet(drainKey(i), drainData(i), uint32(i), false)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := base; i < base+batch && i < nKeys; i++ {
			status, err := cl.ReadStatus()
			if err != nil || status != "STORED" {
				t.Fatalf("set %d: %q, %v", i, status, err)
			}
		}
	}

	// Close the server while background flushes may still be in flight;
	// Shutdown must not return before the drain lands them.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-served

	st := eng.Stats()
	if st.WriteErrors != 0 || st.Evictions != 0 {
		t.Fatalf("drain test geometry no longer eviction-free: %+v", st)
	}
	for i := 0; i < nKeys; i++ {
		want := make([]byte, 4+len(drainData(i)))
		binary.BigEndian.PutUint32(want, uint32(i))
		copy(want[4:], drainData(i))
		v, hit := eng.Get(drainKey(i))
		if !hit {
			t.Fatalf("STORED key %d lost across Shutdown", i)
		}
		if string(v) != string(want) {
			t.Fatalf("key %d corrupted across Shutdown: got %q want %q", i, v, want)
		}
	}
}

// TestWriteErrorSurfacesInServedStats pins the async error surface end to
// end over the wire: with a device write fault armed, flushes fail while
// the connection keeps being served and the stats verb reports the climbing
// engine_write_errors counter. Where the error itself lands depends on
// which path ran the failing flush — inline on the handler (SERVER_ERROR on
// that set) or on the flusher pool (deferred, out of Shutdown's Drain) —
// so Shutdown may return nil or the injected fault, never anything else.
func TestWriteErrorSurfacesInServedStats(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		eng, dev := newEngineOn(t, b, 1, 1)
		defer eng.Close()
		boom := errors.New("injected append fault")
		dev.SetWriteFault(func(zone int) error { return boom })
		defer dev.SetWriteFault(nil)

		srv, err := server.New(server.Config{Engine: eng, MaxItemBytes: testMaxItem})
		if err != nil {
			t.Fatal(err)
		}
		l, served := servePipes(srv, nil)
		cli := l.dial()
		defer cli.Close()

		cl := memclient.New(cli)
		surfaced := false
		for i := 0; i < 500 && !surfaced; i++ {
			// STORED means "accepted"; once backpressure routes a flush inline,
			// the injected fault comes back as SERVER_ERROR — both are fine
			// here, the assertion is the stats surface.
			cl.QueueSet(drainKey(i), drainData(i), 0, false)
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.ReadStatus(); err != nil {
				t.Fatal(err)
			}
			stats, err := cl.Stats()
			if err != nil {
				t.Fatal(err)
			}
			surfaced = stats["engine_write_errors"] >= 1
		}
		if !surfaced {
			t.Fatal("engine_write_errors never surfaced in the stats verb")
		}

		if err := srv.Shutdown(); err != nil && !errors.Is(err, boom) {
			t.Fatalf("Shutdown returned %v, want nil or the injected flush fault", err)
		}
		<-served
		if st := eng.Stats(); st.WriteErrors == 0 {
			t.Fatalf("WriteErrors not in final engine stats: %+v", st)
		}
		dev.SetWriteFault(nil)
	})
}

// TestFaultBlocksMidDrain injects the fault mid-shutdown: a blockable
// write hook holds a flush in flight, Shutdown is entered while it is
// blocked — so the graceful drain (handler wait + engine Drain) is waiting
// on that very flush — and only then is the fault released. Shutdown must
// complete rather than hang, and the failure must be visible in the final
// stats as WriteErrors (returned from Shutdown too when the flusher pool,
// rather than an inline handler flush, owned the failed flush).
func TestFaultBlocksMidDrain(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		eng, dev := newEngineOn(t, b, 1, 1)
		defer eng.Close()
		boom := errors.New("injected mid-drain fault")
		gate := make(chan struct{})
		entered := make(chan struct{})
		var once sync.Once
		dev.SetWriteFault(func(zone int) error {
			once.Do(func() { close(entered) })
			<-gate
			return boom
		})
		defer dev.SetWriteFault(nil)

		srv, err := server.New(server.Config{Engine: eng, MaxItemBytes: testMaxItem})
		if err != nil {
			t.Fatal(err)
		}
		l, served := servePipes(srv, nil)
		cli := l.dial()
		defer cli.Close()

		// Feed noreply sets until a flush reaches the (now blocked) device
		// hook. The writer goroutine may itself end up blocked behind the held
		// flush; it is abandoned — closing the pipe in cleanup releases it.
		go func() {
			cl := memclient.New(cli)
			for i := 0; i < 2000; i++ {
				select {
				case <-entered:
					return
				default:
				}
				cl.QueueSet(drainKey(i), drainData(i), 0, true)
				if cl.Flush() != nil {
					return
				}
			}
		}()
		select {
		case <-entered:
		case <-time.After(30 * time.Second):
			t.Fatal("no flush ever reached the device hook")
		}

		// Enter Shutdown while the flush is held in flight, then release the
		// fault so it fails under the drain.
		shutdownErr := make(chan error, 1)
		go func() { shutdownErr <- srv.Shutdown() }()
		time.Sleep(50 * time.Millisecond)
		close(gate)

		select {
		case err := <-shutdownErr:
			if err != nil && !errors.Is(err, boom) {
				t.Fatalf("Shutdown returned %v, want nil or the injected fault", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("Shutdown hung across the failed drain")
		}
		<-served
		if st := eng.Stats(); st.WriteErrors == 0 {
			t.Fatalf("WriteErrors not surfaced in final stats: %+v", st)
		}
		dev.SetWriteFault(nil)
	})
}
