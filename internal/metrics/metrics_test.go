package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Record(100 * time.Microsecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 90*time.Microsecond || got > 110*time.Microsecond {
			t.Fatalf("q=%v: got %v, want ≈100µs", q, got)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	n := 100000
	for i := 0; i < n; i++ {
		h.Record(time.Duration(rng.Int63n(int64(time.Millisecond))))
	}
	// Uniform [0, 1ms): p50 ≈ 0.5ms within bucket error (~7%).
	p50 := h.Quantile(0.5)
	if p50 < 450*time.Microsecond || p50 > 560*time.Microsecond {
		t.Fatalf("p50 = %v, want ≈500µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Fatalf("p99 = %v, want ≈990µs", p99)
	}
}

func TestHistogramMonotoneQuantiles(t *testing.T) {
	f := func(vals []uint32) bool {
		var h Histogram
		for _, v := range vals {
			h.Record(time.Duration(v))
		}
		prev := time.Duration(-1)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99, 0.9999} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMinMaxBounds(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		min, max := time.Duration(vals[0]), time.Duration(vals[0])
		for _, v := range vals {
			d := time.Duration(v)
			h.Record(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		return h.Quantile(0) == min && h.Max() == max && h.Quantile(0.5) <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
		b.Record(time.Duration(i+100) * time.Microsecond)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if a.Max() != b.Max() {
		t.Fatalf("merged max = %v, want %v", a.Max(), b.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Second)
	if h.Max() != 0 || h.Count() != 1 {
		t.Fatal("negative value should clamp to zero")
	}
}

func TestIntCDF(t *testing.T) {
	c := NewIntCDF(10)
	for v := 0; v <= 15; v++ {
		c.Add(v)
	}
	cdf := c.CDF()
	if cdf[len(cdf)-1] != 1.0 {
		t.Fatalf("final CDF = %v, want 1", cdf[len(cdf)-1])
	}
	// Values 0..10 are 11/16 of the mass at bucket 10.
	if got, want := cdf[10], 11.0/16.0; got != want {
		t.Fatalf("CDF()[10] = %v, want %v", got, want)
	}
	if got := c.Mean(); got != 7.5 {
		t.Fatalf("mean = %v, want 7.5", got)
	}
}

func TestIntCDFMonotone(t *testing.T) {
	f := func(vals []uint8) bool {
		c := NewIntCDF(10)
		for _, v := range vals {
			c.Add(int(v))
		}
		cdf := c.CDF()
		prev := 0.0
		for _, p := range cdf {
			if p < prev || p > 1.0000001 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioWindow(t *testing.T) {
	w := NewRatioWindow(10)
	for i := 0; i < 100; i++ {
		w.Observe(i%2 == 0)
	}
	s := w.Series()
	if s.Len() != 10 {
		t.Fatalf("series has %d points, want 10", s.Len())
	}
	for _, y := range s.Y {
		if y != 0.5 {
			t.Fatalf("window ratio = %v, want 0.5", y)
		}
	}
}

func TestFillRateCDF(t *testing.T) {
	rates := []float64{0.1, 0.2, 0.3, 0.4}
	cdf := FillRateCDF(rates, []float64{0.0, 0.25, 0.5, 1.0})
	want := []float64{0, 0.5, 1, 1}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.Add(3, 4)
	if s.Len() != 2 || s.Y[1] != 4 {
		t.Fatalf("series state wrong: len=%d y=%v", s.Len(), s.Y)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean of 1,2,3 should be 2")
	}
}
