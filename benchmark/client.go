package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
)

// This file is the benchmark's own load generator and memcached client: a
// per-connection request stream (generator), the round trip it rides
// (wireClient), and the counters both fill (clientStats). Nothing in the
// timed window allocates.

type cmdKind uint8

const (
	cmdGet cmdKind = iota
	cmdSet
	cmdDelete
)

// maxCmds bounds the commands of one round trip (a depth-8 batch, or the
// demand fill of one 16-key get); maxGetKeys the keys of one get.
const (
	maxCmds    = 64
	maxGetKeys = 16
)

// cmd is one command of a round trip as the verifier needs it back.
type cmd struct {
	kind    cmdKind
	nkeys   int
	ids     [maxGetKeys]int
	ack     [maxGetKeys]uint32 // get: ledger.ackState when sent
	version uint32             // set: the version written
}

// batch is one round trip: its commands and their wire bytes.
type batch struct {
	cmds      [maxCmds]cmd
	n         int
	wire      []byte
	userBytes int // key+value bytes of the batch's SETs
}

func (b *batch) reset() { b.n, b.wire, b.userBytes = 0, b.wire[:0], 0 }

// generator is one connection's seeded request stream. It owns the keys
// with id % nConns == conn: only it SETs or DELETEs them.
type generator struct {
	wl    workload
	shape *keyShape
	led   *ledger
	conn  int
	r     rng
	zipf  []*rand.Zipf // twitter_mix: one per cluster
	pick  rng          // twitter_mix: which cluster the next key is from

	// Prefill cursor: prefillLeft[i] SETs remain for segment i, prefillAt
	// is the next segment to take one from.
	prefillLeft []int
	prefillAt   int
}

// newGenerator builds connection conn's stream. poolBytes sizes the
// twitter_mix prefill (the other workloads carry theirs as a count).
func newGenerator(wl workload, shape *keyShape, led *ledger, seed int64, conn int, poolBytes int64) *generator {
	g := &generator{wl: wl, shape: shape, led: led, conn: conn}
	g.r.s = streamSeed(seed, wl.Name, conn, "ops")
	if wl.Name != wlTwitterMix {
		g.prefillLeft = []int{wl.Prefill / nConns}
		return g
	}
	g.pick.s = streamSeed(seed, wl.Name, conn, "cluster")
	for i, c := range table5 {
		seg := &shape.segs[i]
		src := &rng{s: streamSeed(seed, wl.Name, conn, c.Name)}
		g.zipf = append(g.zipf, newZipf(src, c.ZipfAlpha, seg.n/nConns))
		// The pool starts full of each cluster's hottest ranks: equal bytes
		// per cluster, twitterPrefillPools pools in total.
		bytes := float64(poolBytes) * twitterPrefillPools / float64(len(table5)*nConns)
		n := int(bytes / float64(seg.meanObjectBytes()))
		if n > seg.n/nConns {
			n = seg.n / nConns
		}
		g.prefillLeft = append(g.prefillLeft, n)
	}
	return g
}

// ownKey draws a uniform key of this connection's partition.
func (g *generator) ownKey() int { return g.r.intn(g.shape.keys/nConns)*nConns + g.conn }

// twitterKey draws a cluster with equal weight, then a Zipf rank inside
// this connection's share of it.
func (g *generator) twitterKey() int {
	i := g.pick.intn(len(g.zipf))
	return g.shape.segs[i].first + int(g.zipf[i].Uint64())*nConns + g.conn
}

func (g *generator) addGet(b *batch, ids []int) {
	c := &b.cmds[b.n]
	b.n++
	c.kind, c.nkeys = cmdGet, len(ids)
	b.wire = append(b.wire, "get"...)
	for i, id := range ids {
		c.ids[i] = id
		c.ack[i] = g.led.ackState(id)
		b.wire = append(b.wire, ' ')
		b.wire = g.shape.appendKey(b.wire, id)
	}
	b.wire = append(b.wire, '\r', '\n')
}

func (g *generator) addSet(b *batch, id int) {
	c := &b.cmds[b.n]
	b.n++
	c.kind, c.nkeys = cmdSet, 1
	c.ids[0] = id
	c.version = g.led.nextVersion(id)
	size := g.shape.valueSize(id)
	b.wire = append(b.wire, "set "...)
	klen := len(b.wire)
	b.wire = g.shape.appendKey(b.wire, id)
	klen = len(b.wire) - klen
	b.wire = append(b.wire, " 0 0 "...)
	b.wire = strconv.AppendUint(b.wire, uint64(size), 10)
	b.wire = append(b.wire, '\r', '\n')
	b.wire = appendValue(b.wire, id, c.version, size)
	b.wire = append(b.wire, '\r', '\n')
	b.userBytes += klen + size
}

func (g *generator) addDelete(b *batch, id int) {
	c := &b.cmds[b.n]
	b.n++
	c.kind, c.nkeys = cmdDelete, 1
	c.ids[0] = id
	b.wire = append(b.wire, "delete "...)
	b.wire = g.shape.appendKey(b.wire, id)
	b.wire = append(b.wire, '\r', '\n')
}

// next fills b with the next timed-window round trip of a wire workload.
// (lib_direct has no wire: its client draws ownKey and calls the engine.)
func (g *generator) next(b *batch) {
	b.reset()
	if g.wl.Name == wlTwitterMix {
		var ids [maxGetKeys]int
		for i := 0; i < g.wl.GetKeys; i++ {
			ids[i] = g.twitterKey()
		}
		g.addGet(b, ids[:g.wl.GetKeys])
		return
	}
	for i := 0; i < g.wl.Depth; i++ {
		switch p := g.r.intn(100); {
		case p < g.wl.SetPct:
			g.addSet(b, g.ownKey())
		case p < g.wl.SetPct+g.wl.DelPct:
			g.addDelete(b, g.ownKey())
		default:
			g.addGet(b, []int{g.r.intn(g.shape.keys)})
		}
	}
}

// prefillNext returns the next key of this connection's prefill, ok false
// once it is done. Fixed-shape workloads walk their partition in order,
// wrapping for a second pass; twitter_mix interleaves the clusters and walks
// each from its coldest prefilled rank to its hottest, so the hottest keys
// are the youngest in the pool.
func (g *generator) prefillNext() (id int, ok bool) {
	for tries := 0; tries < len(g.prefillLeft); tries++ {
		i := g.prefillAt
		g.prefillAt = (g.prefillAt + 1) % len(g.prefillLeft)
		if g.prefillLeft[i] == 0 {
			continue
		}
		g.prefillLeft[i]--
		seg := &g.shape.segs[i]
		if g.wl.Name == wlTwitterMix {
			return seg.first + g.prefillLeft[i]*nConns + g.conn, true
		}
		done := g.wl.Prefill/nConns - 1 - g.prefillLeft[i]
		return done%(seg.n/nConns)*nConns + g.conn, true
	}
	return 0, false
}

// counters is what one client counted; every field adds across clients.
type counters struct {
	getKeys, hits      int64
	sets, deletes      int64
	attempted, failed  int64 // commands (a 16-key get is one)
	stale, resurrected int64
	wrongBytes         int64
	userBytes          int64 // key+value bytes of the SETs sent
	batches            int64
	rttSum, rttMax     int64
}

func (c *counters) ops() int64 { return c.getKeys + c.sets + c.deletes }

func (c *counters) add(o *counters) {
	c.getKeys += o.getKeys
	c.hits += o.hits
	c.sets += o.sets
	c.deletes += o.deletes
	c.attempted += o.attempted
	c.failed += o.failed
	c.stale += o.stale
	c.resurrected += o.resurrected
	c.wrongBytes += o.wrongBytes
	c.userBytes += o.userBytes
	c.batches += o.batches
	c.rttSum += o.rttSum
	if o.rttMax > c.rttMax {
		c.rttMax = o.rttMax
	}
}

// countHit files one judged hit and reports whether its bytes were wrong.
func (c *counters) countHit(v verdict) (wrong bool) {
	switch v {
	case hitWrong:
		c.wrongBytes++
		return true
	case hitStale:
		c.stale++
	case hitResurrected:
		c.resurrected++
	}
	c.hits++
	return false
}

// clientStats is what one client measured in one timed window: its counters
// plus, per window segment, latencies, operations and the end timestamp.
type clientStats struct {
	counters
	getLat, setLat [segments]hist
	segOps         [segments]int64
	segEnd         [segments + 1]int64 // ns on the window clock; [0] is the start
}

// replyReader is a fixed-buffer line and block reader over the connection.
type replyReader struct {
	src  io.Reader
	buf  []byte
	r, w int
}

func newReplyReader(src io.Reader) *replyReader {
	return &replyReader{src: src, buf: make([]byte, 64<<10)}
}

func (rr *replyReader) fill() error {
	if rr.r > 0 {
		rr.w = copy(rr.buf, rr.buf[rr.r:rr.w])
		rr.r = 0
	}
	if rr.w == len(rr.buf) {
		return errors.New("benchmark: reply exceeds the client buffer")
	}
	n, err := rr.src.Read(rr.buf[rr.w:])
	rr.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// line returns the next reply line without its CRLF; the slice is valid
// until the next call.
func (rr *replyReader) line() ([]byte, error) {
	scanned := 0
	for {
		if i := bytes.IndexByte(rr.buf[rr.r+scanned:rr.w], '\n'); i >= 0 {
			line := rr.buf[rr.r : rr.r+scanned+i]
			rr.r += scanned + i + 1
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, nil
		}
		scanned = rr.w - rr.r
		if err := rr.fill(); err != nil {
			return nil, err
		}
	}
}

// block returns the next n data bytes and consumes their trailing CRLF.
func (rr *replyReader) block(n int) ([]byte, error) {
	for rr.w-rr.r < n+2 {
		if err := rr.fill(); err != nil {
			return nil, err
		}
	}
	data := rr.buf[rr.r : rr.r+n]
	if rr.buf[rr.r+n] != '\r' || rr.buf[rr.r+n+1] != '\n' {
		return nil, errors.New("benchmark: data block not terminated by CRLF")
	}
	rr.r += n + 2
	return data, nil
}

// wireClient is one closed-loop connection.
type wireClient struct {
	gen    *generator
	nc     net.Conn
	rd     *replyReader
	b      batch
	keyBuf []byte
	missed []int    // ids the last round trip's gets missed
	setup  counters // where untimed round trips count
	tr     *tracer
}

// newWireClient allocates a client's buffers; bind attaches it to a
// connection, so set-up repeated in one run allocates them once.
func newWireClient(tr *tracer) *wireClient {
	return &wireClient{
		rd: newReplyReader(nil), tr: tr,
		b:      batch{wire: make([]byte, 0, 256<<10)},
		keyBuf: make([]byte, 0, 256),
		missed: make([]int, 0, maxCmds*maxGetKeys),
	}
}

func (c *wireClient) bind(gen *generator, nc net.Conn) {
	c.gen, c.nc, c.setup = gen, nc, counters{}
	c.rd.src, c.rd.r, c.rd.w = nc, 0, 0
}

var (
	replyEnd     = []byte("END")
	replyStored  = []byte("STORED")
	replyDeleted = []byte("DELETED")
	replyValue   = []byte("VALUE ")
)

// roundTrip sends c.b and reads, verifies and files every reply. With st nil
// (set-up traffic) replies are verified all the same and counted in c.setup.
// A returned error means the connection is unusable.
func (c *wireClient) roundTrip(st *clientStats, seg int) error {
	cnt := &c.setup
	if st != nil {
		cnt = &st.counters
	}
	var spanID uint32
	var spanStart int64
	if c.tr != nil {
		spanID, spanStart = c.tr.begin(opWireBatch)
	}
	t0 := clock()
	if _, err := c.nc.Write(c.b.wire); err != nil {
		return err
	}
	c.missed = c.missed[:0]
	keys := 0
	for i := 0; i < c.b.n; i++ {
		m := &c.b.cmds[i]
		cnt.attempted++
		ok := false
		var err error
		switch m.kind {
		case cmdGet:
			ok, err = c.readGet(m, cnt)
			cnt.getKeys += int64(m.nkeys)
			if st != nil {
				st.getLat[seg].record(clock() - t0)
			}
		case cmdSet:
			if ok, err = c.readStatus(replyStored); ok {
				c.gen.led.ackSet(m.ids[0], m.version)
			}
			cnt.sets++
			if st != nil {
				st.setLat[seg].record(clock() - t0)
			}
		case cmdDelete:
			if ok, err = c.readStatus(replyDeleted); ok {
				c.gen.led.ackDelete(m.ids[0])
			}
			cnt.deletes++
		}
		if err != nil {
			return err
		}
		if !ok {
			cnt.failed++
		}
		keys += m.nkeys
	}
	rtt := clock() - t0
	if c.tr != nil {
		c.tr.end(spanID, opWireBatch, spanStart, keys, false)
	}
	cnt.batches++
	cnt.rttSum += rtt
	if rtt > cnt.rttMax {
		cnt.rttMax = rtt
	}
	cnt.userBytes += int64(c.b.userBytes)
	if st != nil {
		st.segOps[seg] += int64(keys)
	}
	return nil
}

// readStatus reads a one-line reply; anything but want is a failed
// operation (the connection stays framed, so the run goes on).
func (c *wireClient) readStatus(want []byte) (ok bool, err error) {
	line, err := c.rd.line()
	if err != nil {
		return false, err
	}
	return bytes.Equal(line, want), nil
}

// readGet consumes one get's reply: VALUE blocks in request order (misses
// are simply absent), then END. ok is false when the command failed: an
// error line in place of the reply, a value for a key it did not ask for,
// or wrong bytes.
func (c *wireClient) readGet(m *cmd, cnt *counters) (ok bool, err error) {
	next := 0 // first requested key not yet matched
	ok = true
	for {
		line, err := c.rd.line()
		if err != nil {
			return false, err
		}
		if bytes.Equal(line, replyEnd) {
			break
		}
		if !bytes.HasPrefix(line, replyValue) {
			return false, nil
		}
		key, size, valid := parseValueLine(line[len(replyValue):])
		if !valid {
			return false, fmt.Errorf("benchmark: malformed VALUE line %q", line)
		}
		// The key bytes alias the read buffer; match them before block()
		// may compact it.
		matched := -1
		for ; next < m.nkeys && matched < 0; next++ {
			c.keyBuf = c.gen.shape.appendKey(c.keyBuf[:0], m.ids[next])
			if bytes.Equal(key, c.keyBuf) {
				matched = next
			} else {
				c.missed = append(c.missed, m.ids[next])
			}
		}
		data, err := c.rd.block(size)
		if err != nil {
			return false, err
		}
		if matched < 0 {
			cnt.wrongBytes++
			ok = false
		} else if cnt.countHit(c.gen.led.judge(m.ids[matched], m.ack[matched], data)) {
			ok = false
		}
	}
	for ; next < m.nkeys; next++ {
		c.missed = append(c.missed, m.ids[next])
	}
	return ok, nil
}

// parseValueLine splits "<key> <flags> <bytes>" (the part after "VALUE ").
func parseValueLine(rest []byte) (key []byte, size int, ok bool) {
	i := bytes.IndexByte(rest, ' ')
	if i <= 0 {
		return nil, 0, false
	}
	key, rest = rest[:i], rest[i+1:]
	j := bytes.IndexByte(rest, ' ')
	if j <= 0 {
		return nil, 0, false
	}
	rest = rest[j+1:]
	if len(rest) == 0 || len(rest) > 7 {
		return nil, 0, false
	}
	for _, d := range rest {
		if d < '0' || d > '9' {
			return nil, 0, false
		}
		size = size*10 + int(d-'0')
	}
	return key, size, true
}
