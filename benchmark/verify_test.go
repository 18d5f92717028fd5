package main

import (
	"fmt"
	"net"
	"testing"
)

// TestJudge: wrong bytes in each of the three ways are wrong, and an old but
// written version or a hit after an acknowledged delete is only counted.
func TestJudge(t *testing.T) {
	shape := fixedShape(100, 24, 200)
	led := newLedger(shape.keys)
	const id = 5
	v1 := appendValue(nil, id, led.nextVersion(id), 200)
	led.ackSet(id, 1)
	v2 := appendValue(nil, id, led.nextVersion(id), 200)
	led.ackSet(id, 2)
	acked := led.ackState(id)

	flipped := append([]byte(nil), v2...)
	flipped[100] ^= 1
	otherKey := appendValue(nil, id+1, 1, 200)
	neverWritten := appendValue(nil, id, 3, 200)

	for _, c := range []struct {
		name  string
		ack   uint32
		value []byte
		want  verdict
	}{
		{"latest version", acked, v2, hitOK},
		{"one flipped payload byte", acked, flipped, hitWrong},
		{"another key's value", acked, otherKey, hitWrong},
		{"a version never written", acked, neverWritten, hitWrong},
		{"truncated", acked, v2[:150], hitWrong},
		{"stale but written version", acked, v1, hitStale},
		{"written but not yet acknowledged", 1, v2, hitOK},
		{"hit after an acknowledged delete", 2 | deletedBit, v2, hitResurrected},
	} {
		if got := led.judge(id, c.ack, c.value); got != c.want {
			t.Errorf("%s: verdict %d, want %d", c.name, got, c.want)
		}
	}
}

// scriptedServer answers each round trip with the next scripted reply. A
// round trip is one Write on the pipe, so one Read swallows it whole.
func scriptedServer(t *testing.T, nc net.Conn, replies ...string) {
	t.Helper()
	go func() {
		defer nc.Close()
		request := make([]byte, 64<<10)
		for _, reply := range replies {
			if _, err := nc.Read(request); err != nil {
				return
			}
			if _, err := nc.Write([]byte(reply)); err != nil {
				return
			}
		}
	}()
}

// TestClientCountsWrongBytesAsFailed drives the wire client against scripted
// replies: each kind of wrong bytes fails its command, a stale hit does not.
func TestClientCountsWrongBytesAsFailed(t *testing.T) {
	shape := fixedShape(100, 24, 200)
	wl, _ := workloadByName(wlGetFits)
	const id = 4 // owned by connection 0
	key := string(shape.appendKey(nil, id))
	valueReply := func(k string, v []byte) string {
		return fmt.Sprintf("VALUE %s 0 %d\r\n%s\r\nEND\r\n", k, len(v), v)
	}

	for _, c := range []struct {
		name             string
		reply            func(v1, v2 []byte) string
		failed, stale    int64
		hits, wrongBytes int64
	}{
		{"latest", func(_, v2 []byte) string { return valueReply(key, v2) }, 0, 0, 1, 0},
		{"miss", func(_, _ []byte) string { return "END\r\n" }, 0, 0, 0, 0},
		{"stale", func(v1, _ []byte) string { return valueReply(key, v1) }, 0, 1, 1, 0},
		{"flipped byte", func(_, v2 []byte) string {
			f := append([]byte(nil), v2...)
			f[50] ^= 0x80
			return valueReply(key, f)
		}, 1, 0, 0, 1},
		{"wrong key id", func(_, _ []byte) string { return valueReply(key, appendValue(nil, id+2, 1, 200)) }, 1, 0, 0, 1},
		{"never-written version", func(_, _ []byte) string { return valueReply(key, appendValue(nil, id, 9, 200)) }, 1, 0, 0, 1},
		{"a key nobody asked for", func(_, v2 []byte) string {
			return valueReply(string(shape.appendKey(nil, id+2)), v2)
		}, 1, 0, 0, 1},
		{"server error", func(_, _ []byte) string { return "SERVER_ERROR degraded\r\n" }, 1, 0, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			led := newLedger(shape.keys)
			gen := newGenerator(wl, shape, led, 1, 0, 0)
			v1 := appendValue(nil, id, led.nextVersion(id), 200)
			v2 := appendValue(nil, id, led.nextVersion(id), 200)
			led.ackSet(id, 2)

			client, srv := net.Pipe()
			scriptedServer(t, srv, c.reply(v1, v2))
			wc := newWireClient(nil)
			wc.bind(gen, client)
			defer client.Close()
			wc.b.reset()
			gen.addGet(&wc.b, []int{id})
			st := new(clientStats)
			if err := wc.roundTrip(st, 0); err != nil {
				t.Fatal(err)
			}
			if st.attempted != 1 || st.failed != c.failed || st.stale != c.stale || st.hits != c.hits || st.wrongBytes != c.wrongBytes {
				t.Errorf("attempted %d failed %d stale %d hits %d wrong %d; want 1 %d %d %d %d",
					st.attempted, st.failed, st.stale, st.hits, st.wrongBytes, c.failed, c.stale, c.hits, c.wrongBytes)
			}
		})
	}
}

// TestClientSetAndDeleteReplies: only STORED and DELETED acknowledge.
func TestClientSetAndDeleteReplies(t *testing.T) {
	shape := fixedShape(100, 24, 200)
	wl, _ := workloadByName(wlWriteChurn)
	led := newLedger(shape.keys)
	gen := newGenerator(wl, shape, led, 1, 0, 0)
	client, srv := net.Pipe()
	defer client.Close()
	scriptedServer(t, srv, "STORED\r\n", "DELETED\r\n", "SERVER_ERROR object too large for cache\r\n", "NOT_FOUND\r\n")
	wc := newWireClient(nil)
	wc.bind(gen, client)
	st := new(clientStats)
	for i, add := range []func(){
		func() { gen.addSet(&wc.b, 2) },
		func() { gen.addDelete(&wc.b, 2) },
		func() { gen.addSet(&wc.b, 4) },
		func() { gen.addDelete(&wc.b, 4) },
	} {
		wc.b.reset()
		add()
		if err := wc.roundTrip(st, 0); err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
	}
	if st.attempted != 4 || st.failed != 2 {
		t.Errorf("attempted %d failed %d, want 4 and 2", st.attempted, st.failed)
	}
	if got := led.ackState(2); got != 1|deletedBit {
		t.Errorf("key 2 ack state %#x, want version 1 deleted", got)
	}
	if got := led.ackState(4); got != 0 {
		t.Errorf("key 4 ack state %#x, want nothing acknowledged", got)
	}
}
