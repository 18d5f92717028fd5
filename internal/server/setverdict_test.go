package server_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nemo/internal/server"
)

// TestPipelinedSetVerdictsPerKey pins what a failed inline flush costs a
// pipelined run of sets on an engine without a flusher pool: every set is
// its own SetAsync, so the flush failure answers SERVER_ERROR to exactly the
// sets whose own insert ran the failing flush, and the sets before it stay
// STORED. (Coalesced into one batched call, the run's error could not be
// attributed per key, and every set of it answered SERVER_ERROR.)
//
// A probe engine finds the insert that runs the first flush. Two identical
// engines are then filled to three sets short of it, and their devices
// start failing writes. One takes the run as direct SetAsync calls, which
// records per set whether its insert reached the device and whether it
// failed; the other serves the same run pipelined over the wire.
func TestPipelinedSetVerdictsPerKey(t *testing.T) {
	const run, before = 8, 3
	key := func(i int) string { return fmt.Sprintf("verdict-key-%04d", i) }
	data := func(i int) string { return fmt.Sprintf("verdict-data-%04d-%s", i, strings.Repeat("v", 24)) }
	item := func(i int) []byte { // what the server stores: flags envelope (0), then data
		return append(binary.BigEndian.AppendUint32(nil, 0), data(i)...)
	}

	probe, _ := newEngine(t, 1, 0)
	defer probe.Close()
	first := 0
	for ; probe.Readout().SGsFlushed == 0; first++ {
		if err := probe.Set([]byte(key(first)), item(first)); err != nil {
			t.Fatal(err)
		}
	}
	first-- // the insert of key(first) ran the first flush
	lo := first - before

	boom := errors.New("injected write fault")
	writes := 0
	failing := func(int) error { writes++; return boom }

	// The direct run: which sets flush, and which fail.
	direct, ddev := newEngine(t, 1, 0)
	defer direct.Close()
	for i := 0; i < lo; i++ {
		if err := direct.Set([]byte(key(i)), item(i)); err != nil {
			t.Fatal(err)
		}
	}
	ddev.SetWriteFault(failing)
	var want strings.Builder
	flushed := 0
	for i := lo; i < lo+run; i++ {
		w := writes
		err := direct.SetAsync([]byte(key(i)), item(i))
		if ran := writes > w; ran != (err != nil) {
			t.Fatalf("set %d: ran a flush %v, failed %v (%v)", i-lo, ran, err != nil, err)
		}
		if (err != nil) != (i == first) && i <= first {
			t.Fatalf("set %d: failed %v, but only set %d runs the first flush", i-lo, err != nil, before)
		}
		if err != nil {
			flushed++
			fmt.Fprintf(&want, "SERVER_ERROR %v\r\n", err)
			continue
		}
		want.WriteString("STORED\r\n")
	}
	ddev.SetWriteFault(nil)
	if flushed == 0 || flushed == run {
		t.Fatalf("%d of %d sets ran the failing flush; the test needs both kinds", flushed, run)
	}

	// The served run, pipelined in one write.
	eng, dev := newEngine(t, 1, 0)
	for i := 0; i < lo; i++ {
		if err := eng.Set([]byte(key(i)), item(i)); err != nil {
			t.Fatal(err)
		}
	}
	cli := startPipeServer(t, server.Config{Engine: eng, MaxItemBytes: testMaxItem})
	defer cli.Close()
	dev.SetWriteFault(func(int) error { return boom })
	defer dev.SetWriteFault(nil)
	var req strings.Builder
	for i := lo; i < lo+run; i++ {
		fmt.Fprintf(&req, "set %s 0 0 %d\r\n%s\r\n", key(i), len(data(i)), data(i))
	}
	send(t, cli, req.String())
	expect(t, cli, want.String())
}
