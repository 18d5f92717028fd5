package server_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"nemo/internal/server"
)

// cas recomputes the `gets` cas token contract from the wire data: the
// FNV-1a fingerprint of the stored value, which is the 4-byte big-endian
// flags envelope followed by the data block.
func cas(flags uint32, data string) uint64 {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], flags)
	h := fnv.New64a()
	h.Write(hdr[:])
	h.Write([]byte(data))
	return h.Sum64()
}

// step is one send/expect exchange of a conformance transcript.
type step struct {
	send string
	want string
}

// conformanceTranscript is the golden request/response byte transcript for
// every verb of the protocol subset. Each transcript runs on a fresh
// server over net.Pipe and replies must match byte-for-byte; a transcript
// whose early steps provoke errors pins that the connection survives them.
var conformanceTranscript = []struct {
	name  string
	steps []step
}{
	{"set get roundtrip", []step{
		{"set foo 7 0 3\r\nbar\r\n", "STORED\r\n"},
		{"get foo\r\n", "VALUE foo 7 3\r\nbar\r\nEND\r\n"},
	}},
	{"gets carries cas token", []step{
		{"set foo 7 0 3\r\nbar\r\n", "STORED\r\n"},
		{"gets foo\r\n", fmt.Sprintf("VALUE foo 7 3 %d\r\nbar\r\nEND\r\n", cas(7, "bar"))},
	}},
	{"multi-key get omits misses", []step{
		{"set a 1 0 1\r\nA\r\n", "STORED\r\n"},
		{"set b 2 0 1\r\nB\r\n", "STORED\r\n"},
		{"get a missing b a\r\n",
			"VALUE a 1 1\r\nA\r\nVALUE b 2 1\r\nB\r\nVALUE a 1 1\r\nA\r\nEND\r\n"},
		{"get missing-1 missing-2\r\n", "END\r\n"},
	}},
	{"empty value stores and serves", []step{
		{"set empty 9 0 0\r\n\r\n", "STORED\r\n"},
		{"get empty\r\n", "VALUE empty 9 0\r\n\r\nEND\r\n"},
	}},
	{"noreply suppresses the reply", []step{
		{"set nr 1 0 2 noreply\r\nhi\r\nget nr\r\n", "VALUE nr 1 2\r\nhi\r\nEND\r\n"},
		{"delete nr noreply\r\nget nr\r\n", "END\r\n"},
	}},
	{"delete tombstones", []step{
		{"set foo 0 0 3\r\nbar\r\n", "STORED\r\n"},
		{"delete foo\r\n", "DELETED\r\n"},
		{"get foo\r\n", "END\r\n"},
		// The engine has no exact index, so delete cannot report
		// existence: a delete of an absent key still replies DELETED
		// (documented protocol subset).
		{"delete never-stored\r\n", "DELETED\r\n"},
	}},
	{"unknown command keeps the connection", []step{
		{"bogus\r\n", "ERROR\r\n"},
		{"flush_all\r\n", "ERROR\r\n"},
		{"stats items\r\n", "ERROR\r\n"},
		{"version\r\n", "VERSION nemo/1\r\n"},
	}},
	{"malformed lines keep the connection", []step{
		{"set k notanum 0 3\r\n", "CLIENT_ERROR bad command line format\r\n"},
		{"get\r\n", "CLIENT_ERROR bad command line format\r\n"},
		{"set k 0 0\r\n", "CLIENT_ERROR bad command line format\r\n"},
		{"delete\r\n", "CLIENT_ERROR bad command line format\r\n"},
		{"set ok 0 0 2\r\nok\r\n", "STORED\r\n"},
	}},
	{"bad data chunk keeps the connection", []step{
		// 3 declared bytes followed by 2 terminator bytes that are not
		// CRLF: the block is consumed, the store rejected, framing kept.
		{"set k 0 0 3\r\nbarXY", "CLIENT_ERROR bad data chunk\r\n"},
		{"get k\r\n", "END\r\n"},
		{"set k 0 0 1\r\nK\r\n", "STORED\r\n"},
	}},
	{"oversized value is SERVER_ERROR not disconnect", []step{
		// 600 B exceeds the test engine's 512 B set page; the block is
		// swallowed and the connection stays usable.
		{"set big 0 0 600\r\n" + strings.Repeat("x", 600) + "\r\n",
			"SERVER_ERROR object too large for cache\r\n"},
		{"set small 0 0 5\r\nhello\r\n", "STORED\r\n"},
	}},
	{"key validation", []step{
		{"get " + strings.Repeat("k", 251) + "\r\n", "CLIENT_ERROR key too long (251 > 250)\r\n"},
		{"get \x01key\r\n", "CLIENT_ERROR invalid key byte 0x01\r\n"},
		{"get " + strings.Repeat("k", 250) + "\r\n", "END\r\n"},
	}},
	{"pipelined batch replies in order", []step{
		{"set a 0 0 1\r\nA\r\nset b 0 0 1\r\nB\r\nget a b\r\ndelete a\r\nbogus\r\nget b\r\n",
			"STORED\r\nSTORED\r\nVALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\nDELETED\r\nERROR\r\nVALUE b 0 1\r\nB\r\nEND\r\n"},
	}},
	{"overwrite takes the last value", []step{
		{"set k 1 0 3\r\nold\r\nset k 2 0 3\r\nnew\r\n", "STORED\r\nSTORED\r\n"},
		{"get k\r\n", "VALUE k 2 3\r\nnew\r\nEND\r\n"},
	}},
}

// TestProtocolConformance runs every golden transcript against an
// in-memory net.Pipe server, on an engine with a flusher pool ("async") and
// without one ("sync"): the wire contract is identical; only where the
// flush runs differs.
func TestProtocolConformance(t *testing.T) {
	for _, mode := range []struct {
		name     string
		flushers int
	}{{"async", 2}, {"sync", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			for _, tc := range conformanceTranscript {
				t.Run(tc.name, func(t *testing.T) {
					eng, _ := newEngine(t, 2, mode.flushers)
					cli := startPipeServer(t, server.Config{
						Engine:       eng,
						MaxItemBytes: testMaxItem,
					})
					for _, st := range tc.steps {
						send(t, cli, st.send)
						expect(t, cli, st.want)
					}
				})
			}
		})
	}
}

// TestQuitClosesConnection pins the quit verb: any pipelined requests
// ahead of it are answered, then the server closes the connection.
func TestQuitClosesConnection(t *testing.T) {
	eng, _ := newEngine(t, 1, 0)
	cli := startPipeServer(t, server.Config{Engine: eng, MaxItemBytes: testMaxItem})
	send(t, cli, "set k 0 0 1\r\nK\r\nquit\r\n")
	expect(t, cli, "STORED\r\n")
	expectEOF(t, cli)
}

// TestLineTooLongKeepsConnection pins oversize-line handling: the line is
// consumed to its newline, answered with CLIENT_ERROR, and the connection
// stays framed.
func TestLineTooLongKeepsConnection(t *testing.T) {
	eng, _ := newEngine(t, 1, 0)
	cli := startPipeServer(t, server.Config{Engine: eng, MaxItemBytes: testMaxItem})
	send(t, cli, "get "+strings.Repeat("k", 20<<10)+"\r\n")
	expect(t, cli, "CLIENT_ERROR command line too long\r\n")
	send(t, cli, "version\r\n")
	expect(t, cli, "VERSION nemo/1\r\n")
}
