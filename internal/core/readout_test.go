package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestReadoutFieldsCoverStruct pins Fields and Add to the Readout struct,
// as TestStatsFieldsCoverStruct does for cachelib.Stats: every uint64 field
// reached through Readout — the embedded Stats, NemoStats and Resident
// included — appears exactly once in Fields, in declaration order, with its
// value, beside the ledger's two sums; and r.Add(r) doubles every summed
// field while leaving the per-shard fields (those after Resident) zero. A
// counter added without a row would vanish from the stats verb, and one
// without an Add term from every facade total.
func TestReadoutFieldsCoverStruct(t *testing.T) {
	var r Readout
	var want []uint64 // the uint64 fields' values, in declaration order
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Uint64:
				// Distinct powers of two: no sum of two or more equals one.
				want = append(want, 1<<len(want))
				f.SetUint(want[len(want)-1])
			case reflect.Uint8:
				f.SetUint(1)
			case reflect.Int:
				f.SetInt(1)
			case reflect.Float64:
				f.SetFloat(0.5)
			case reflect.String:
				f.SetString("x")
			default:
				t.Fatalf("%s: unhandled kind %s", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&r).Elem())

	var got []uint64
	seen := map[string]bool{}
	for _, f := range r.Fields() {
		if seen[f.Name] {
			t.Fatalf("duplicate row %q", f.Name)
		}
		seen[f.Name] = true
		if !strings.HasPrefix(f.Name, "engine_") && !strings.HasPrefix(f.Name, "nemo_") && !strings.HasPrefix(f.Name, "resident_") {
			t.Errorf("row %q is not under engine_, nemo_ or resident_", f.Name)
		}
		switch f.Name {
		case "resident_paper_meta_bytes":
			if f.Value != r.PaperMeta() {
				t.Errorf("%s = %d, want PaperMeta %d", f.Name, f.Value, r.PaperMeta())
			}
		case "resident_total_bytes":
			if f.Value != r.Total() {
				t.Errorf("%s = %d, want Total %d", f.Name, f.Value, r.Total())
			}
		default:
			got = append(got, f.Value)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Fields rows (the two sums aside) = %v,\nwant every uint64 field once in declaration order %v", got, want)
	}
	if !seen["nemo_new_objs"] {
		t.Error("no nemo_new_objs row: NewObjs is the object count Figure 18 reads")
	}

	sum := reflect.ValueOf(r.Add(r))
	var check func(path string, v, s reflect.Value)
	check = func(path string, v, s reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				check(path+"."+v.Type().Field(i).Name, v.Field(i), s.Field(i))
			}
		case reflect.Uint64:
			if s.Uint() != 2*v.Uint() {
				t.Errorf("r.Add(r)%s = %d, want %d", path, s.Uint(), 2*v.Uint())
			}
		case reflect.Float64:
			if s.Float() != 2*v.Float() {
				t.Errorf("r.Add(r)%s = %v, want %v", path, s.Float(), 2*v.Float())
			}
		default:
			t.Errorf("summed field %s has kind %s", path, v.Kind())
		}
	}
	rv, perShard := reflect.ValueOf(r), false
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		if perShard {
			if !sum.Field(i).IsZero() {
				t.Errorf("r.Add(r).%s = %v, want zero: a per-shard field has no sum", name, sum.Field(i))
			}
			continue
		}
		check("."+name, rv.Field(i), sum.Field(i))
		perShard = name == "Resident"
	}
}

// TestNewObjsCountsFreshInserts checks NewObjs against the Sets that made
// the objects: on a fault-free serial run every Set inserts one fresh
// object, which either reached flash in a flushed SG (NewObjs, sacrificed
// ones included) or still waits in an in-memory SG.
func TestNewObjsCountsFreshInserts(t *testing.T) {
	c := testCache(t, nil)
	for i := 0; i < 6000; i++ {
		k, v := kv(i % 2500)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	r := c.Readout()
	buffered := 0
	for _, sg := range c.memq {
		buffered += sg.newObjs
	}
	if r.SGsFlushed == 0 || r.Sacrificed == 0 {
		t.Fatalf("%d flushes, %d sacrificed: the trace exercises neither", r.SGsFlushed, r.Sacrificed)
	}
	if r.NewObjs+uint64(buffered) != r.Sets {
		t.Fatalf("NewObjs %d + %d buffered = %d, want the %d Sets", r.NewObjs, buffered, r.NewObjs+uint64(buffered), r.Sets)
	}
}

// TestReadoutAllocations pins the facade's read-out at zero allocations: at
// four shards after a fill, Sharded.Readout takes every shard's counters,
// ledger and breaker by value under each shard's lock and sums them.
func TestReadoutAllocations(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	_, s := kitGeom(t, 4, 16, 2)
	for i := 0; i < 40_000; i++ {
		if err := s.SetAsync(kitKey(i), kitValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	var r Readout
	if got := testing.AllocsPerRun(100, func() { r = s.Readout() }); got != 0 {
		t.Errorf("Sharded.Readout allocates %.1f times, want 0", got)
	}
	if r.SGsFlushed == 0 || r.Objects == 0 || r.FlushKits == 0 {
		t.Fatalf("read-out after the fill: %d SGs flushed, %d objects, %d kit bytes; want all nonzero",
			r.SGsFlushed, r.Objects, r.FlushKits)
	}
}
