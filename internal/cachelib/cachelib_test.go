package cachelib

import (
	"reflect"
	"testing"
	"time"

	"nemo/internal/trace"
	"nemo/internal/vtime"
)

// fakeEngine is an unbounded map cache for exercising the replayer.
type fakeEngine struct {
	PerKey
	m  map[string][]byte
	st Stats
}

func newFake() *fakeEngine {
	f := &fakeEngine{m: make(map[string][]byte)}
	f.PerKey = PerKeyOver(f)
	return f
}

func (f *fakeEngine) Name() string { return "fake" }
func (f *fakeEngine) Get(key []byte) ([]byte, bool) {
	f.st.Gets++
	v, ok := f.m[string(key)]
	if ok {
		f.st.Hits++
	}
	return v, ok
}
func (f *fakeEngine) Set(key, value []byte) error {
	f.st.Sets++
	f.st.LogicalBytes += uint64(len(key) + len(value))
	f.st.FlashBytesWritten += uint64(len(key) + len(value))
	f.m[string(key)] = append([]byte(nil), value...)
	return nil
}
func (f *fakeEngine) Delete(key []byte) error {
	f.st.Deletes++
	delete(f.m, string(key))
	return nil
}
func (f *fakeEngine) Stats() Stats { return f.st }
func (f *fakeEngine) Close() error { return nil }

func testStream() trace.Stream {
	return trace.NewZipf(trace.ClusterConfig{
		Name: "t", KeySize: 16, ValueMean: 50, ValueStd: 10,
		Keys: 500, ZipfAlpha: 1.3, Seed: 2,
	})
}

func TestReplayDemandFill(t *testing.T) {
	e := newFake()
	res, err := Replay(e, testStream(), ReplayConfig{Ops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Gets != 10_000 {
		t.Fatalf("gets = %d", res.Final.Gets)
	}
	// Every miss must have been filled.
	if res.Final.Sets != res.Final.Gets-res.Final.Hits {
		t.Fatalf("sets %d != misses %d", res.Final.Sets, res.Final.Gets-res.Final.Hits)
	}
	// With 500 keys and an unbounded cache, misses are only compulsory.
	if res.Final.Sets > 500 {
		t.Fatalf("more fills (%d) than distinct keys", res.Final.Sets)
	}
	if res.Final.MissRatio() > 0.2 {
		t.Fatalf("miss ratio %v too high for unbounded cache", res.Final.MissRatio())
	}
}

func TestReplayAdvancesClock(t *testing.T) {
	e := newFake()
	clk := &vtime.Clock{}
	_, err := Replay(e, testStream(), ReplayConfig{Ops: 100, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if clk.Now() != time.Millisecond {
		t.Fatalf("clock = %v, want 100 requests × 10µs = 1ms", clk.Now())
	}
}

func TestReplayTimelineAndMissSeries(t *testing.T) {
	e := newFake()
	res, err := Replay(e, testStream(), ReplayConfig{Ops: 6400})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline samples")
	}
	last := res.Timeline[len(res.Timeline)-1]
	if last.Ops != 6400 {
		t.Fatalf("last sample at %d ops", last.Ops)
	}
	if res.Miss.Len() == 0 {
		t.Fatal("no miss-ratio windows")
	}
	// Miss ratio should decline as the unbounded cache warms.
	first, lastMiss := res.Miss.Y[0], res.Miss.Y[res.Miss.Len()-1]
	if lastMiss > first {
		t.Fatalf("miss ratio rose from %v to %v on an unbounded cache", first, lastMiss)
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	approx := func(got, want float64) bool {
		d := got - want
		return d < 1e-9 && d > -1e-9
	}
	s := Stats{Gets: 100, Hits: 80, LogicalBytes: 1000, FlashBytesWritten: 1560,
		DeviceBytesWritten: 3120, FlashBytesRead: 8000}
	if got := s.MissRatio(); !approx(got, 0.2) {
		t.Fatalf("miss = %v", got)
	}
	if got := s.ALWA(); !approx(got, 1.56) {
		t.Fatalf("ALWA = %v", got)
	}
	if got := s.TotalWA(); !approx(got, 3.12) {
		t.Fatalf("TotalWA = %v", got)
	}
	if got := s.ReadAmplification(); got != 100 {
		t.Fatalf("readamp = %v", got)
	}
	var zero Stats
	if zero.ALWA() != 1 || zero.MissRatio() != 0 || zero.TotalWA() != 1 {
		t.Fatal("zero-value stats should degrade gracefully")
	}
	// DeviceBytesWritten below FlashBytesWritten clamps up.
	s2 := Stats{LogicalBytes: 100, FlashBytesWritten: 200, DeviceBytesWritten: 0}
	if s2.TotalWA() != 2 {
		t.Fatalf("TotalWA clamp = %v", s2.TotalWA())
	}
}

// TestStatsFieldsCoverStruct pins Fields and Add to the Stats struct: every
// uint64 counter must appear exactly once in Fields, in declaration order,
// with its value, and s.Add(s) must double it — so a counter added to Stats
// without a Fields entry (which would silently vanish from the server's
// `stats` verb) or without an Add term (which would vanish from every
// sharded total) fails here.
func TestStatsFieldsCoverStruct(t *testing.T) {
	s := Stats{}
	rv := reflect.ValueOf(&s).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetUint(uint64(i + 1)) // distinct, nonzero
	}
	fields := s.Fields()
	if len(fields) != rv.NumField() {
		t.Fatalf("Fields() has %d entries, Stats has %d fields", len(fields), rv.NumField())
	}
	seen := map[string]bool{}
	for i, f := range fields {
		if f.Value != uint64(i+1) {
			t.Fatalf("Fields()[%d] = %q/%d, want declaration-order value %d", i, f.Name, f.Value, i+1)
		}
		if seen[f.Name] {
			t.Fatalf("duplicate field name %q", f.Name)
		}
		seen[f.Name] = true
	}
	sum := reflect.ValueOf(s.Add(s))
	for i := 0; i < rv.NumField(); i++ {
		if got, want := sum.Field(i).Uint(), uint64(2*(i+1)); got != want {
			t.Fatalf("s.Add(s).%s = %d, want %d", rv.Type().Field(i).Name, got, want)
		}
	}
}
