package server

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
)

// walkRetained is the retained storage the slots hold, summed slot by slot:
// what trimSlots compared with batchRetainBytes before it kept a total.
func walkRetained(c *conn) (n int) {
	for i := range c.ops {
		n += cap(c.ops[i].val)
		for _, k := range c.ops[i].keys {
			n += cap(k)
		}
	}
	return n
}

// TestTrimSlotsRunningTotal reads batches of pipelined requests into a
// connection's slots — small, 12 KB and 20 KiB sets, multi-key gets with long keys,
// batches deeper than the last — and after each batch's trim holds the
// running total to the slot-by-slot sum, every value buffer to
// valRetainBytes, and the slots to being released exactly when the sum
// passes batchRetainBytes.
func TestTrimSlotsRunningTotal(t *testing.T) {
	c := &conn{srv: &Server{}}
	released := 0
	for b := 0; b < 40; b++ {
		var req strings.Builder
		depth := 1 + b%7*3
		for i := 0; i < depth; i++ {
			switch (b + i) % 4 {
			case 0:
				fmt.Fprintf(&req, "set k%d-%d 0 0 5\r\nhello\r\n", b, i)
			case 1:
				n := []int{20480, 12000}[i%2] // over valRetainBytes, and kept
				fmt.Fprintf(&req, "set big%d 0 0 %d\r\n%s\r\n", i, n, strings.Repeat("x", n))
			case 2:
				fmt.Fprintf(&req, "get %s a%d b%d %s\r\n", strings.Repeat("k", 200+b), i, b, strings.Repeat("q", 2*b))
			default:
				fmt.Fprintf(&req, "delete d%d\r\n", i)
			}
		}
		c.r = bufio.NewReader(strings.NewReader(req.String()))
		c.nops = 0
		for i := 0; i < depth; i++ {
			if err := c.readOp(); err != nil {
				t.Fatalf("batch %d op %d: %v", b, i, err)
			}
		}
		before := walkRetained(c)
		for i := range c.ops[:c.nops] {
			if v := cap(c.ops[i].val); v > valRetainBytes {
				before -= v
			}
		}
		c.trimSlots()
		if before > batchRetainBytes {
			released++
			if c.ops != nil || c.retained != 0 {
				t.Fatalf("batch %d: %d retained bytes past the cap, but %d slots (total %d) kept", b, before, len(c.ops), c.retained)
			}
			continue
		}
		if got := walkRetained(c); c.retained != got || got != before {
			t.Fatalf("batch %d: running total %d, slots hold %d, want %d", b, c.retained, got, before)
		}
		for i := range c.ops {
			if v := cap(c.ops[i].val); v > valRetainBytes {
				t.Fatalf("batch %d: slot %d kept a %d-byte value buffer", b, i, v)
			}
		}
	}
	if released == 0 {
		t.Fatal("no batch grew the slots past batchRetainBytes")
	}
}
