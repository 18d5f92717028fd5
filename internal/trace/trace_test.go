package trace

import (
	"math"
	"testing"
)

func TestZipfDeterministic(t *testing.T) {
	cfg := Clusters[0].Scaled(1 << 20)
	a, b := NewZipf(cfg), NewZipf(cfg)
	var ra, rb Request
	for i := 0; i < 1000; i++ {
		a.Next(&ra)
		b.Next(&rb)
		if string(ra.Key) != string(rb.Key) || string(ra.Value) != string(rb.Value) {
			t.Fatalf("streams diverged at op %d", i)
		}
	}
}

func TestZipfKeySizeAndSkew(t *testing.T) {
	cfg := Clusters[2].Scaled(1 << 22) // cluster34, α≈1.14
	s := NewZipf(cfg)
	var req Request
	counts := map[string]int{}
	n := 50000
	for i := 0; i < n; i++ {
		s.Next(&req)
		if len(req.Key) != cfg.KeySize {
			t.Fatalf("key size %d, want %d", len(req.Key), cfg.KeySize)
		}
		counts[string(req.Key)]++
	}
	// Zipfian skew: the most popular key should take a clearly
	// disproportionate share of a uniform draw.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := float64(n) / float64(cfg.Keys)
	if float64(max) < 20*uniform {
		t.Fatalf("top key count %d shows no skew (uniform share %.1f)", max, uniform)
	}
}

func TestValueDeterministicPerKey(t *testing.T) {
	cfg := Clusters[1].Scaled(1 << 20)
	s := NewZipf(cfg)
	var req Request
	values := map[string]string{}
	for i := 0; i < 20000; i++ {
		s.Next(&req)
		k := string(req.Key)
		if prev, ok := values[k]; ok {
			if prev != string(req.Value) {
				t.Fatalf("key %q produced two different values", k)
			}
		} else {
			values[k] = string(req.Value)
		}
	}
}

func TestValueSizeDistribution(t *testing.T) {
	mean, std := 250, 200
	var sum, sumsq float64
	n := 100000
	for i := 0; i < n; i++ {
		sz := float64(ValueSize(uint64(i), mean, std, 1, 4096))
		sum += sz
		sumsq += sz * sz
	}
	m := sum / float64(n)
	sd := math.Sqrt(sumsq/float64(n) - m*m)
	// Clamping at 1 truncates the lower tail, pushing the mean up a bit.
	if m < float64(mean)*0.9 || m > float64(mean)*1.25 {
		t.Fatalf("mean value size %.1f, want ≈%d", m, mean)
	}
	if sd < float64(std)*0.6 || sd > float64(std)*1.3 {
		t.Fatalf("std %.1f, want ≈%d", sd, std)
	}
}

// TestVerifyValue checks a payload the way an integrity test would: fill a
// second request with the same id and compare.
func TestVerifyValue(t *testing.T) {
	var req, again Request
	FillValue(&req, 100, 42)
	FillValue(&again, 100, 42)
	if string(req.Value) != string(again.Value) {
		t.Fatal("verification of correct payload failed")
	}
	req.Value[50] ^= 1
	if string(req.Value) == string(again.Value) {
		t.Fatal("verification accepted corrupted payload")
	}
}

func TestScaledWSS(t *testing.T) {
	cfg := Clusters[0].Scaled(10 << 20)
	got := int64(cfg.Keys) * int64(cfg.ObjectMean())
	if got < 9<<20 || got > 11<<20 {
		t.Fatalf("scaled WSS = %d, want ≈10MiB", got)
	}
}

func TestTable5Characteristics(t *testing.T) {
	// The four clusters must preserve Table 5's key sizes and α values.
	wantKey := map[string]int{"cluster14": 96, "cluster29": 36, "cluster34": 33, "cluster52": 20}
	wantAlpha := map[string]float64{"cluster14": 1.2959, "cluster29": 1.2323, "cluster34": 1.1401, "cluster52": 1.2117}
	for _, c := range Clusters {
		if c.KeySize != wantKey[c.Name] {
			t.Fatalf("%s key size %d", c.Name, c.KeySize)
		}
		if c.ZipfAlpha != wantAlpha[c.Name] {
			t.Fatalf("%s alpha %v", c.Name, c.ZipfAlpha)
		}
	}
	// Average object size across clusters should be near the paper's 246 B.
	var sum int
	for _, c := range Clusters {
		sum += c.ObjectMean()
	}
	avg := sum / len(Clusters)
	if avg < 220 || avg > 320 {
		t.Fatalf("average object size %d B, want near 246 B", avg)
	}
}

func TestInterleavedMixesClusters(t *testing.T) {
	streams := make([]Stream, 2)
	streams[0] = NewZipf(ClusterConfig{Name: "a", KeySize: 20, ValueMean: 100, Keys: 100, ZipfAlpha: 1.2, Seed: 1})
	streams[1] = NewZipf(ClusterConfig{Name: "b", KeySize: 40, ValueMean: 100, Keys: 100, ZipfAlpha: 1.2, Seed: 2})
	m, err := NewInterleaved(streams, []float64{1, 3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	n20, n40 := 0, 0
	for i := 0; i < 10000; i++ {
		m.Next(&req)
		switch len(req.Key) {
		case 20:
			n20++
		case 40:
			n40++
		default:
			t.Fatalf("unexpected key size %d", len(req.Key))
		}
	}
	ratio := float64(n40) / float64(n20)
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("weight ratio = %v, want ≈3", ratio)
	}
}

func TestInterleavedValidation(t *testing.T) {
	if _, err := NewInterleaved(nil, nil, 1); err == nil {
		t.Fatal("empty interleave should error")
	}
	s := []Stream{NewSyntheticInserts(16, 100, 10, 1)}
	if _, err := NewInterleaved(s, []float64{-1}, 1); err == nil {
		t.Fatal("negative weight should error")
	}
}

func TestSyntheticInsertsUniqueKeys(t *testing.T) {
	s := NewSyntheticInserts(16, 250, 200, 5)
	var req Request
	seen := map[string]bool{}
	for i := 0; i < 20000; i++ {
		s.Next(&req)
		k := string(req.Key)
		if seen[k] {
			t.Fatalf("duplicate key at op %d", i)
		}
		seen[k] = true
	}
}

func TestDefaultInterleaved(t *testing.T) {
	m, err := DefaultInterleaved(1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	sizes := map[int]bool{}
	for i := 0; i < 5000; i++ {
		m.Next(&req)
		sizes[len(req.Key)] = true
	}
	if len(sizes) != 4 {
		t.Fatalf("expected all 4 cluster key sizes, got %v", sizes)
	}
}
