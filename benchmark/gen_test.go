package main

import (
	"bytes"
	"hash/fnv"
	"testing"

	"nemo"
)

// requestStream is the hash of the first n round trips connection conn sends
// for (seed, workload): the wire workloads' request bytes, lib_direct's keys.
func requestStream(wl workload, seed int64, conn, n int) uint64 {
	sut := smokeSUT()
	shape := shapeOf(wl, sut)
	gen := newGenerator(wl, shape, newLedger(shape.keys), seed, conn, sut.poolBytes())
	h := fnv.New64a()
	b := batch{wire: make([]byte, 0, 64<<10)}
	for i := 0; i < n; i++ {
		if wl.Wire {
			gen.next(&b)
			h.Write(b.wire)
		} else {
			h.Write(shape.appendKey(nil, gen.ownKey()))
		}
	}
	return h.Sum64()
}

// TestStreamsAreSeeded: the same (seed, workload, connection) gives a
// byte-identical request stream; another seed or connection gives another.
func TestStreamsAreSeeded(t *testing.T) {
	for _, wl := range workloads {
		base := requestStream(wl, 1, 0, 500)
		if again := requestStream(wl, 1, 0, 500); again != base {
			t.Errorf("%s: the same seed gave two different streams", wl.Name)
		}
		if other := requestStream(wl, 2, 0, 500); other == base {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", wl.Name)
		}
		if other := requestStream(wl, 1, 1, 500); other == base {
			t.Errorf("%s: connections 0 and 1 gave the same stream", wl.Name)
		}
	}
}

// TestWritersOwnDisjointKeys: every SET, DELETE and demand-filled key of a
// connection's stream and prefill is in its own partition.
func TestWritersOwnDisjointKeys(t *testing.T) {
	sut := smokeSUT()
	for _, wl := range workloads {
		shape := shapeOf(wl, sut)
		for conn := 0; conn < nConns; conn++ {
			gen := newGenerator(wl, shape, newLedger(shape.keys), 3, conn, sut.poolBytes())
			prefilled := 0
			for id, ok := gen.prefillNext(); ok; id, ok = gen.prefillNext() {
				if id%nConns != conn || id >= shape.keys {
					t.Fatalf("%s: connection %d prefills key %d", wl.Name, conn, id)
				}
				prefilled++
			}
			if prefilled == 0 {
				t.Errorf("%s: connection %d prefills nothing", wl.Name, conn)
			}
			var b batch
			for i := 0; i < 300; i++ {
				if !wl.Wire {
					if id := gen.ownKey(); id%nConns != conn {
						t.Fatalf("%s: connection %d reads and fills key %d", wl.Name, conn, id)
					}
					continue
				}
				gen.next(&b)
				for _, c := range b.cmds[:b.n] {
					writes := c.kind != cmdGet || wl.DemandFill
					for _, id := range c.ids[:c.nkeys] {
						if writes && id%nConns != conn {
							t.Fatalf("%s: connection %d writes key %d", wl.Name, conn, id)
						}
					}
				}
			}
		}
	}
}

// TestTable5MatchesTracePackage: the copied Table 5 constants equal
// internal/trace.Clusters as the root facade exposes them.
func TestTable5MatchesTracePackage(t *testing.T) {
	theirs := nemo.Clusters()
	if len(theirs) != len(table5) {
		t.Fatalf("%d clusters here, %d there", len(table5), len(theirs))
	}
	for i, c := range table5 {
		o := theirs[i]
		if c.Name != o.Name || c.KeySize != o.KeySize || c.ValueMean != o.ValueMean ||
			c.ValueStd != o.ValueStd || c.ZipfAlpha != o.ZipfAlpha {
			t.Errorf("cluster %d: %+v here, %+v in internal/trace", i, c, o)
		}
	}
}

// TestKeysAndValuesRoundTrip: keys are distinct, protocol-legal and of their
// segment's length; values decode to what was encoded, at every size.
func TestKeysAndValuesRoundTrip(t *testing.T) {
	shape := twitterShape(64 << 20)
	seen := map[string]bool{}
	for _, seg := range shape.segs {
		for _, id := range []int{seg.first, seg.first + seg.n/2, seg.first + seg.n - 1} {
			key := shape.appendKey(nil, id)
			if len(key) != seg.keySize {
				t.Errorf("key %d is %d bytes, want %d", id, len(key), seg.keySize)
			}
			if bytes.ContainsAny(key, " \r\n\x00") || seen[string(key)] {
				t.Errorf("key %q is not a fresh protocol-legal key", key)
			}
			seen[string(key)] = true
			size := shape.valueSize(id)
			if size < valueHeader || size > maxValue || size != shape.valueSize(id) {
				t.Errorf("value size of key %d is %d", id, size)
			}
			v := appendValue(nil, id, 7, size)
			gotID, gotVersion, ok := decodeValue(v)
			if len(v) != size || !ok || gotID != id || gotVersion != 7 {
				t.Errorf("value of key %d decodes as (%d, %d, %v), %d bytes", id, gotID, gotVersion, ok, len(v))
			}
		}
	}
}

// TestHistogramError: a reported quantile is within 1% of the sample.
func TestHistogramError(t *testing.T) {
	for _, ns := range []int64{1, 100, 129, 1000, 16_384, 99_999, 1_234_567, 3_000_000_000} {
		var h hist
		h.record(ns)
		h.record(ns * 4) // keeps max away from the sample under test
		got := h.quantile(0.25)
		if got < float64(ns) || got > float64(ns)*1.01 {
			t.Errorf("quantile of a single %d ns sample = %v", ns, got)
		}
	}
}
