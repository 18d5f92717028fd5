package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strconv"
	"time"

	"nemo/internal/cachelib"
)

// This file is the per-connection handler: a read loop that accumulates
// pipelined requests into a batch, an executor that coalesces consecutive
// gets into GetMany engine rounds and sends each set through SetAsync, and
// the reply writers. Replies are produced strictly in request order (a parse
// error occupies its position in the pipeline like any other reply), and the
// write buffer is flushed once per batch — the unit of amortization that
// makes pipelined loopback throughput scale. A connection owns its read and
// write buffers for its whole life, and the wait between requests is a
// blocking read into that read buffer: the transport read that ends the wait
// already carries the request, so a request that arrives in one segment
// costs one read.

// readBufSize sizes the bufio reader (and therefore the longest acceptable
// request line) and the reply writer: 2 x 16 KiB per live connection.
const readBufSize = 16 << 10

// maxBatch caps how many pipelined requests one connection coalesces into
// a single engine round.
const maxBatch = 64

// maxBatchBytes caps the summed key+value bytes one connection buffers into
// a single batch before executing, so a deeply pipelined client of large
// sets cannot make one batch hold an unbounded heap. The cap closes batches
// early; it never rejects a request (a single request larger than the
// budget still forms a batch of one — Config.MaxItemBytes is the
// per-request bound).
const maxBatchBytes = 1 << 20

// valRetainBytes bounds the per-slot value buffer kept across batches: a
// slot that buffered a larger set gives the storage back after the batch,
// so one burst of big objects does not pin its high-water heap on the
// connection forever.
const valRetainBytes = 16 << 10

// batchRetainBytes bounds the total batch accumulation storage (op slots,
// owned keys, retained values, gather scratch) a connection keeps between
// batches. A connection whose slots grew past the cap releases them all and
// re-grows on the next batch, so one deep pipeline burst does not pin its
// high-water heap on the connection.
const batchRetainBytes = 64 << 10

// errClass classifies a request that failed before reaching the engine.
type errClass uint8

const (
	errNone    errClass = iota
	errGeneric          // "ERROR\r\n" — unknown verb
	errClient           // "CLIENT_ERROR <msg>\r\n" — malformed request
	errServer           // "SERVER_ERROR <msg>\r\n" — server-side rejection
)

// op is one slot of a connection's request batch. Slots own their key and
// value storage and are reused batch over batch, so a steady-state
// connection stops allocating once its slots have grown to the workload's
// shape.
type op struct {
	kind    Kind
	bad     errClass // != errNone: reply with the error, skip the engine
	msg     string   // errClient/errServer message
	keys    [][]byte // owned copies; keys[:nkeys] are live
	nkeys   int
	val     []byte // set: encoded item (envelope + data), owned
	noreply bool
}

// setKeys copies the parsed (line-aliasing) keys into the slot's owned
// storage and returns how many bytes of key capacity that grew.
func (o *op) setKeys(src [][]byte) (grew int) {
	o.nkeys = len(src)
	for len(o.keys) < len(src) {
		o.keys = append(o.keys, nil)
	}
	for i, k := range src {
		had := cap(o.keys[i])
		o.keys[i] = append(o.keys[i][:0], k...)
		grew += cap(o.keys[i]) - had
	}
	return grew
}

// size is the op's contribution to the batch byte budget: buffered value
// plus owned key bytes.
func (o *op) size() int {
	n := len(o.val)
	for i := 0; i < o.nkeys; i++ {
		n += len(o.keys[i])
	}
	return n
}

// conn is the per-connection state. r and w wrap nc from serveConn's first
// line to its last; bytes r still buffers after a batch are the start of the
// next pipelined request and simply stay there.
type conn struct {
	srv *Server
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer

	cmd  Command // parse scratch
	ops  []op    // batch slots, reused
	nops int

	getKeys [][]byte // GetMany gather scratch
	num     [20]byte // strconv scratch

	// retained is the value and key capacity the slots hold, kept as they
	// grow and shrink so trimSlots need not walk them.
	retained int

	// midRequest is true once any byte of the current request has been
	// consumed; it classifies a read timeout as an idle disconnect (false)
	// or a slow-sender deadline disconnect (true).
	midRequest bool
}

// serveConn runs one admitted connection to completion.
func (s *Server) serveConn(nc net.Conn) {
	defer s.removeConn(nc)
	defer nc.Close()
	c := &conn{
		srv: s,
		nc:  nc,
		r:   bufio.NewReaderSize(nc, readBufSize),
		w:   bufio.NewWriterSize(nc, readBufSize),
	}
	for {
		c.nops = 0
		c.midRequest = false
		// Arm the between-requests idle budget (or clear a leftover
		// mid-request deadline when only ReadTimeout is configured).
		if s.cfg.IdleTimeout > 0 {
			s.setReadDeadline(nc, time.Now().Add(s.cfg.IdleTimeout))
		} else if s.cfg.ReadTimeout > 0 {
			s.setReadDeadline(nc, time.Time{})
		}
		// The one wait that may park the connection for a long time: block
		// until the next request's first byte is buffered (a no-op when a
		// pipelined request already is). An error here (EOF, client reset,
		// Shutdown's deadline, a timeout) ends the connection with no batch
		// in flight and nothing to flush.
		if _, err := c.r.Peek(1); err != nil {
			c.countTimeout(err)
			return
		}
		if err := c.readOp(); err != nil {
			c.countTimeout(err) // nothing executed yet: the writer is empty
			return
		}
		// Accumulate while more pipelined requests are already buffered
		// and the batch byte budget holds. The peek guard stops at a
		// half-received line so a slow sender cannot park a batch of
		// unexecuted requests behind a blocking read.
		batchBytes := c.ops[0].size()
		for c.nops < maxBatch && batchBytes < maxBatchBytes {
			last := &c.ops[c.nops-1]
			if last.bad == errNone && last.kind == KindQuit {
				break
			}
			n := c.r.Buffered()
			if n == 0 {
				break
			}
			peek, _ := c.r.Peek(n)
			if bytes.IndexByte(peek, '\n') < 0 {
				break
			}
			if err := c.readOp(); err != nil {
				// The pipeline died mid-request: execute and answer what
				// was fully received, then close.
				c.execute()
				c.w.Flush()
				c.countTimeout(err)
				return
			}
			batchBytes += c.ops[c.nops-1].size()
		}
		quit := c.execute()
		if err := c.w.Flush(); err != nil {
			return
		}
		c.trimSlots()
		if quit || s.isClosed() {
			return
		}
	}
}

// countTimeout attributes a connection-fatal read timeout to its overload
// counter: idle when no byte of a request had arrived, deadline (the
// slow-sender class) when one was underway. Shutdown's immediate deadline
// also surfaces as a timeout and is deliberately not counted.
func (c *conn) countTimeout(err error) {
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() || c.srv.isClosed() {
		return
	}
	if c.midRequest {
		c.srv.deadlineDisconnects.Add(1)
	} else {
		c.srv.idleDisconnects.Add(1)
	}
}

// trimSlots returns oversized value buffers after a batch (see
// valRetainBytes), and releases the whole batch accumulation structure when
// its retained storage exceeds batchRetainBytes. Only this batch's slots can
// hold an oversized value: every earlier batch's were trimmed after it.
func (c *conn) trimSlots() {
	for i := range c.ops[:c.nops] {
		if o := &c.ops[i]; cap(o.val) > valRetainBytes {
			c.retained -= cap(o.val)
			o.val = nil
		}
	}
	if c.retained > batchRetainBytes {
		c.ops, c.getKeys, c.retained = nil, nil, 0
	}
}

// readLine reads one CRLF- (or LF-) terminated request line, stripping the
// terminator. A line longer than the read buffer is consumed to its
// newline and reported as tooLong, so the connection stays framed.
func (c *conn) readLine() (line []byte, tooLong bool, err error) {
	line, err = c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		c.midRequest = true
		for err == bufio.ErrBufferFull {
			_, err = c.r.ReadSlice('\n')
		}
		if err != nil {
			return nil, false, err
		}
		return nil, true, nil
	}
	if err != nil {
		// A partial line was consumed before the error: the timeout (if it
		// is one) caught a request in flight, not an idle connection.
		if len(line) > 0 {
			c.midRequest = true
		}
		return nil, false, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, false, nil
}

// readOp reads one request (line plus, for set, its data block) into the
// next batch slot. Malformed requests fill the slot with an error reply —
// they hold their position in the pipeline and never kill the connection.
// The returned error is reserved for connection-fatal I/O.
func (c *conn) readOp() error {
	if c.nops == len(c.ops) {
		c.ops = append(c.ops, op{})
	}
	o := &c.ops[c.nops]
	o.bad, o.msg, o.noreply, o.nkeys = errNone, "", false, 0

	line, tooLong, err := c.readLine()
	if err != nil {
		return err
	}
	if tooLong {
		o.bad, o.msg = errClient, "command line too long"
		c.nops++
		return nil
	}
	switch perr := ParseCommand(line, &c.cmd); perr.(type) {
	case nil:
	case *ClientError:
		o.bad, o.msg = errClient, perr.(*ClientError).Msg
		c.nops++
		return nil
	default: // ErrUnknownCommand
		o.bad = errGeneric
		c.nops++
		return nil
	}
	o.kind = c.cmd.Kind
	o.noreply = c.cmd.Noreply
	c.retained += o.setKeys(c.cmd.Keys)

	if c.cmd.Kind == KindSet {
		// The data block is consumed even when the object will be
		// rejected — the connection must stay framed either way.
		need := itemOverhead + c.cmd.Bytes
		if cap(o.val) < need {
			c.retained += need - cap(o.val)
			o.val = make([]byte, need)
		}
		o.val = o.val[:need]
		binary.BigEndian.PutUint32(o.val[:itemOverhead], c.cmd.Flags)
		// The data block may block on the wire: from here the request is
		// underway, and the per-read deadline (not the idle budget) bounds
		// a client trickling its payload.
		c.midRequest = true
		if rt := c.srv.cfg.ReadTimeout; rt > 0 && c.r.Buffered() < need+2-itemOverhead {
			c.srv.setReadDeadline(c.nc, time.Now().Add(rt))
		}
		if _, err := io.ReadFull(c.r, o.val[itemOverhead:]); err != nil {
			return err
		}
		var crlf [2]byte
		if _, err := io.ReadFull(c.r, crlf[:]); err != nil {
			return err
		}
		if crlf[0] != '\r' || crlf[1] != '\n' {
			o.bad, o.msg = errClient, "bad data chunk"
		} else if max := c.srv.cfg.MaxItemBytes; max > 0 && len(o.keys[0])+need > max {
			o.bad, o.msg = errServer, "object too large for cache"
		}
	}
	c.nops++
	return nil
}

// execute answers the accumulated batch in request order, coalescing
// consecutive get/gets requests into one GetMany. It reports whether a quit
// request ends the connection.
func (c *conn) execute() (quit bool) {
	ops := c.ops[:c.nops]
	for i := 0; i < len(ops); {
		o := &ops[i]
		if o.bad != errNone {
			c.writeError(o)
			i++
			continue
		}
		switch o.kind {
		case KindGet, KindGets:
			j := i + 1
			for j < len(ops) && ops[j].bad == errNone &&
				(ops[j].kind == KindGet || ops[j].kind == KindGets) {
				j++
			}
			c.execGets(ops[i:j])
			i = j
		case KindSet:
			j := i + 1
			for j < len(ops) && ops[j].bad == errNone && ops[j].kind == KindSet {
				j++
			}
			c.execSets(ops[i:j])
			i = j
		case KindDelete:
			c.execDelete(o)
			i++
		case KindStats:
			c.writeStats()
			i++
		case KindVersion:
			c.w.WriteString("VERSION nemo/1\r\n")
			i++
		case KindQuit:
			return true
		}
	}
	return false
}

// execGets serves a run of get/gets requests through one GetMany round.
func (c *conn) execGets(run []op) {
	c.getKeys = c.getKeys[:0]
	total := 0
	for i := range run {
		o := &run[i]
		c.getKeys = append(c.getKeys, o.keys[:o.nkeys]...)
		total += o.nkeys
	}
	c.srv.cmdGet.Add(uint64(total))
	values, hits := c.srv.cfg.Engine.GetMany(c.getKeys)
	idx := 0
	var hit, miss uint64
	for i := range run {
		o := &run[i]
		for k := 0; k < o.nkeys; k++ {
			if hits[idx] {
				if flags, data, ok := decodeItem(values[idx]); ok {
					hit++
					c.writeValue(o.keys[k], flags, data, o.kind == KindGets, values[idx])
					idx++
					continue
				}
				// A value below the envelope size was not written through
				// this serving layer; report a miss rather than invent
				// framing for it.
			}
			miss++
			idx++
		}
		c.w.WriteString("END\r\n")
	}
	c.srv.getHits.Add(hit)
	c.srv.getMisses.Add(miss)
}

// writeValue emits one VALUE reply; raw is the stored value (envelope
// included) the `gets` cas token is fingerprinted from.
func (c *conn) writeValue(key []byte, flags uint32, data []byte, withCas bool, raw []byte) {
	c.w.WriteString("VALUE ")
	c.w.Write(key)
	c.w.WriteByte(' ')
	c.w.Write(strconv.AppendUint(c.num[:0], uint64(flags), 10))
	c.w.WriteByte(' ')
	c.w.Write(strconv.AppendUint(c.num[:0], uint64(len(data)), 10))
	if withCas {
		c.w.WriteByte(' ')
		c.w.Write(strconv.AppendUint(c.num[:0], casToken(raw), 10))
	}
	c.w.WriteString("\r\n")
	c.w.Write(data)
	c.w.WriteString("\r\n")
}

// engineErrMsg maps an engine error to its SERVER_ERROR detail. The typed
// degraded rejection (a tripped write-path circuit breaker) compresses to
// the stable token "degraded" so clients and tests can match it without
// parsing the engine's prose.
func engineErrMsg(err error) string {
	if errors.Is(err, cachelib.ErrDegraded) {
		return "degraded"
	}
	return err.Error()
}

// execSets serves a run of set requests, each through its own SetAsync, so
// the engine's flusher pool decides what STORED means. With no pool
// (core.Config.Flushers 0) an insert runs any flush it triggers inline:
// STORED means the object survived it, and a failed flush answers
// SERVER_ERROR for exactly the set whose insert ran it. With a pool,
// STORED means "accepted": the flush lands in the background, and its
// error surfaces in Stats.WriteErrors and on Drain.
func (c *conn) execSets(run []op) {
	c.srv.cmdSet.Add(uint64(len(run)))
	eng := c.srv.cfg.Engine
	for i := range run {
		o := &run[i]
		if err := eng.SetAsync(o.keys[0], o.val); err != nil {
			c.replyStatus(o, "SERVER_ERROR ", engineErrMsg(err))
			c.srv.serverErrs.Add(1)
			continue
		}
		c.replyStatus(o, "STORED", "")
	}
}

// execDelete serves one delete. The engine's Delete is a tombstone insert
// (Nemo has no exact index to probe), so existence is unknowable without a
// flash read; the reply is always DELETED, documented as part of the
// protocol subset.
func (c *conn) execDelete(o *op) {
	c.srv.cmdDelete.Add(1)
	if err := c.srv.cfg.Engine.Delete(o.keys[0]); err != nil {
		c.replyStatus(o, "SERVER_ERROR ", engineErrMsg(err))
		c.srv.serverErrs.Add(1)
		return
	}
	c.replyStatus(o, "DELETED", "")
}

// replyStatus writes a one-line reply unless the request was noreply.
func (c *conn) replyStatus(o *op, status, detail string) {
	if o.noreply {
		return
	}
	c.w.WriteString(status)
	c.w.WriteString(detail)
	c.w.WriteString("\r\n")
}

// writeError answers a request that failed before the engine. noreply
// suppresses even error replies (the protocol's documented sharp edge: the
// client asked not to be told).
func (c *conn) writeError(o *op) {
	switch o.bad {
	case errGeneric:
		c.srv.protoErrs.Add(1)
		if !o.noreply {
			c.w.WriteString("ERROR\r\n")
		}
	case errClient:
		c.srv.protoErrs.Add(1)
		if !o.noreply {
			c.w.WriteString("CLIENT_ERROR ")
			c.w.WriteString(o.msg)
			c.w.WriteString("\r\n")
		}
	case errServer:
		c.srv.serverErrs.Add(1)
		if !o.noreply {
			c.w.WriteString("SERVER_ERROR ")
			c.w.WriteString(o.msg)
			c.w.WriteString("\r\n")
		}
	}
}

// writeStats answers the stats verb: the server's protocol counters, the
// runtime's memory gauges, then the engine's rows (Engine.Fields) verbatim —
// its engine_* counters and, from Nemo, its nemo_* counters and resident_*
// ledger — so a row added to an engine's read-out appears here by itself.
func (c *conn) writeStats() {
	writeStatLine := func(name string, v uint64) {
		c.w.WriteString("STAT ")
		c.w.WriteString(name)
		c.w.WriteByte(' ')
		c.w.Write(strconv.AppendUint(c.num[:0], v, 10))
		c.w.WriteString("\r\n")
	}
	for _, f := range c.srv.Fields() {
		writeStatLine(f.Name, f.Value)
	}
	// Runtime memory gauges, so the GC-free-hot-path claim is observable in
	// production: heap object count, live heap bytes, cumulative GC pause.
	// ReadMemStats stops the world briefly; `stats` is an operator verb, not
	// a hot-path one.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeStatLine("runtime_heap_objects", ms.HeapObjects)
	writeStatLine("runtime_heap_bytes", ms.HeapAlloc)
	writeStatLine("runtime_gc_pause_total_ns", ms.PauseTotalNs)
	for _, f := range c.srv.cfg.Engine.Fields() {
		writeStatLine(f.Name, f.Value)
	}
	c.w.WriteString("END\r\n")
}
