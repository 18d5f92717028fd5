package server_test

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"nemo/internal/server"
)

// countingConn counts the transport reads that returned data, as seen from
// the server's side of the connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestOneReadPerRequest pins that the read ending a connection's
// between-requests wait is the read that carries the request: a request
// written in one Write is served with one data-returning transport read. A
// net.Pipe Write returns only once the server has consumed it, so a step
// with no reply still orders the next step after it. The remaining rows are
// the ways a request can straddle that wait.
func TestOneReadPerRequest(t *testing.T) {
	const n = 32
	var depth1 []step
	for i := 0; i < n/2; i++ {
		v := fmt.Sprintf("one-read-value-%02d", i)
		depth1 = append(depth1,
			step{fmt.Sprintf("set or%d 3 0 %d\r\n%s\r\n", i, len(v), v), "STORED\r\n"},
			step{fmt.Sprintf("get or%d\r\n", i), fmt.Sprintf("VALUE or%d 3 %d\r\n%s\r\nEND\r\n", i, len(v), v)})
	}
	rows := []struct {
		name  string
		steps []step
		reads int64
		// stall, when set, is the server's IdleTimeout: the client goes
		// quiet after the last step and must be cut off as a deadline
		// (request underway) disconnect, not an idle one.
		stall time.Duration
	}{
		{name: "depth-1 gets and sets", steps: depth1, reads: n},
		{name: "request line split across two writes", reads: 2, steps: []step{
			{"get spl", ""},
			{"it\r\n", "END\r\n"},
		}},
		{name: "two pipelined requests in one write", reads: 1, steps: []step{
			{"set a 1 0 1\r\nA\r\nget a\r\n", "STORED\r\nVALUE a 1 1\r\nA\r\nEND\r\n"},
		}},
		{name: "set data block in a later write", reads: 3, steps: []step{
			{"set late 5 0 4\r\n", ""},
			{"data\r\n", "STORED\r\n"},
			{"get late\r\n", "VALUE late 5 4\r\ndata\r\nEND\r\n"},
		}},
		{name: "lone first byte then stall", reads: 1, stall: 50 * time.Millisecond, steps: []step{
			{"g", ""},
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			eng, _ := newEngine(t, 1, 0)
			defer eng.Close()
			srv, err := server.New(server.Config{Engine: eng, MaxItemBytes: testMaxItem, IdleTimeout: row.stall})
			if err != nil {
				t.Fatal(err)
			}
			cli, sv := net.Pipe()
			defer cli.Close()
			counted := &countingConn{Conn: sv}
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.ServeConn(counted)
			}()
			for _, st := range row.steps {
				send(t, cli, st.send)
				if st.want != "" {
					expect(t, cli, st.want)
				}
			}
			var wantDeadline uint64
			if row.stall > 0 {
				expectEOF(t, cli)
				wantDeadline = 1
			}
			if got := counted.reads.Load(); got != row.reads {
				t.Errorf("%d data-returning transport reads, want %d", got, row.reads)
			}
			if err := srv.Shutdown(); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			<-done
			var idle, deadline uint64
			for _, f := range srv.Fields() {
				switch f.Name {
				case "idle_disconnects":
					idle = f.Value
				case "deadline_disconnects":
					deadline = f.Value
				}
			}
			if idle != 0 || deadline != wantDeadline {
				t.Errorf("disconnects = idle %d deadline %d, want 0/%d", idle, deadline, wantDeadline)
			}
		})
	}
}
