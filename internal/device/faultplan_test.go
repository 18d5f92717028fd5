package device_test

// FaultPlan unit tests plus the cross-backend parity pin: a seeded plan
// must fault the same positions of an identical operation sequence on both
// flashsim and filedev, because the chaos harness reports availability
// numbers that only mean something if the fault schedule is reproducible.

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nemo/internal/device"
	"nemo/internal/devtest"
)

var faultGeom = device.Geometry{PageSize: 512, PagesPerZone: 32, Zones: 8}

// writeSequence appends n pages round-robin across the first four zones and
// returns the index of every append the plan failed.
func writeSequence(t *testing.T, d device.Device, n int) []int {
	t.Helper()
	buf := make([]byte, d.PageSize())
	var failed []int
	for i := 0; i < n; i++ {
		zone := i % 4
		_, _, err := d.AppendPage(zone, buf)
		switch {
		case err == nil:
		case errors.Is(err, device.ErrInjected):
			failed = append(failed, i)
		default:
			t.Fatalf("append %d: unexpected error %v", i, err)
		}
	}
	return failed
}

func TestFaultPlanDeterministicAcrossBackends(t *testing.T) {
	const ops = 64
	run := func(t *testing.T, b devtest.Backend) []int {
		d := b.New(t, faultGeom)
		plan := device.NewFaultPlan(42, device.FaultRule{Op: device.FaultWrite, ErrRate: 0.3})
		plan.Arm(d)
		defer plan.Disarm()
		return writeSequence(t, d, ops)
	}
	var results map[string][]int
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		failed := run(t, b)
		if len(failed) == 0 || len(failed) == ops {
			t.Fatalf("ErrRate 0.3 failed %d/%d ops — generator not drawing", len(failed), ops)
		}
		if results == nil {
			results = map[string][]int{}
		}
		results[b.Name] = failed
	})
	sim, file := results["sim"], results["file"]
	if sim == nil || file == nil {
		t.Fatalf("missing backend results: %v", results)
	}
	if len(sim) != len(file) {
		t.Fatalf("fault positions diverge: sim %v file %v", sim, file)
	}
	for i := range sim {
		if sim[i] != file[i] {
			t.Fatalf("fault positions diverge at %d: sim %v file %v", i, sim, file)
		}
	}
}

func TestFaultPlanSeedAndRearmReplay(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		plan := device.NewFaultPlan(7, device.FaultRule{Op: device.FaultWrite, ErrRate: 0.5})

		d1 := b.New(t, faultGeom)
		plan.Arm(d1)
		first := writeSequence(t, d1, 40)

		// Re-arming rewinds rule counters and the generator: a fresh device
		// sees the identical fault schedule.
		d2 := b.New(t, faultGeom)
		plan.Arm(d2)
		second := writeSequence(t, d2, 40)
		if len(first) != len(second) {
			t.Fatalf("re-arm replay diverged: %v vs %v", first, second)
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("re-arm replay diverged at %d: %v vs %v", i, first, second)
			}
		}

		// A different seed draws a different schedule.
		other := device.NewFaultPlan(8, device.FaultRule{Op: device.FaultWrite, ErrRate: 0.5})
		d3 := b.New(t, faultGeom)
		other.Arm(d3)
		third := writeSequence(t, d3, 40)
		same := len(third) == len(first)
		if same {
			for i := range third {
				if third[i] != first[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("seeds 7 and 8 drew identical schedules: %v", first)
		}
	})
}

func TestFaultPlanSkipAndFailN(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		d := b.New(t, faultGeom)
		// Let 3 appends through, then fail exactly 2, then recover.
		plan := device.NewFaultPlan(1, device.FaultRule{
			Op: device.FaultWrite, ErrRate: 1, SkipN: 3, FailN: 2,
		})
		plan.Arm(d)
		failed := writeSequence(t, d, 10)
		if len(failed) != 2 || failed[0] != 3 || failed[1] != 4 {
			t.Fatalf("SkipN 3 + FailN 2 failed ops %v, want [3 4]", failed)
		}
		st := plan.Stats()
		if st.Writes != 10 || st.InjectedWrites != 2 {
			t.Fatalf("stats = %+v, want 10 writes / 2 injected", st)
		}
	})
}

func TestFaultPlanZoneTargetingAndReads(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		d := b.New(t, faultGeom)
		sick := errors.New("zone 2 is dying")
		plan := device.NewFaultPlan(1,
			device.FaultRule{Op: device.FaultWrite, ErrRate: 1, Zones: []int{2}, Err: sick},
			device.FaultRule{Op: device.FaultRead, ErrRate: 1, Zones: []int{2}, Err: sick},
		)
		plan.Arm(d)

		buf := make([]byte, d.PageSize())
		// Healthy zones write and read through; pages land where expected.
		var pages []int
		for _, zone := range []int{0, 1, 3} {
			page, _, err := d.AppendPage(zone, buf)
			if err != nil {
				t.Fatalf("append zone %d: %v", zone, err)
			}
			pages = append(pages, page)
		}
		// The sick zone fails both ways with the rule's own error.
		if _, _, err := d.AppendPage(2, buf); !errors.Is(err, sick) {
			t.Fatalf("append zone 2: %v, want %v", err, sick)
		}
		dst := make([]byte, d.PageSize())
		if _, err := d.ReadPage(d.PageAddr(2, 0), dst); !errors.Is(err, sick) {
			t.Fatalf("read zone 2: %v, want %v", err, sick)
		}
		for _, page := range pages {
			if _, err := d.ReadPage(page, dst); err != nil {
				t.Fatalf("read healthy page %d: %v", page, err)
			}
		}

		// A failed append mutates nothing: the zone accepts the retry after
		// the plan is disarmed (the retry-safety the breaker's appendRetry
		// depends on).
		plan.Disarm()
		if _, _, err := d.AppendPage(2, buf); err != nil {
			t.Fatalf("append zone 2 after disarm: %v", err)
		}
		if wp := d.ZoneWP(2); wp != 1 {
			t.Fatalf("zone 2 WP = %d after one successful append, want 1", wp)
		}
	})
}

func TestFaultPlanLatencyOnVirtualClock(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		d := b.New(t, faultGeom)
		clk := d.Clock()
		if clk.Real() {
			t.Skip("backend runs a wall clock; latency injection covered by the virtual-clock backend")
		}
		plan := device.NewFaultPlan(1, device.FaultRule{
			Op: device.FaultWrite, Latency: 3 * time.Millisecond,
		})
		plan.Arm(d)
		buf := make([]byte, d.PageSize())
		before := clk.Now()
		if _, _, err := d.AppendPage(0, buf); err != nil {
			t.Fatal(err)
		}
		if got := clk.Now() - before; got < 3*time.Millisecond {
			t.Fatalf("append advanced the clock %v, want >= 3ms of injected latency", got)
		}
		if st := plan.Stats(); st.DelayedOps != 1 {
			t.Fatalf("DelayedOps = %d, want 1", st.DelayedOps)
		}
	})
}

// TestFaultPlanRearmUnderTraffic re-arms an armed plan while readers are
// inside its hooks (the chaos harness arms mid-traffic): the race detector
// must stay quiet, and the arm after the traffic stops must still replay
// the schedule a fresh plan draws.
func TestFaultPlanRearmUnderTraffic(t *testing.T) {
	devtest.Run(t, func(t *testing.T, b devtest.Backend) {
		rules := []device.FaultRule{
			{Op: device.FaultRead, ErrRate: 0.2},
			{Op: device.FaultWrite, ErrRate: 0.4},
		}
		d := b.New(t, faultGeom)
		plan := device.NewFaultPlan(11, rules...)
		plan.Arm(d)

		stop := make(chan struct{})
		var readers sync.WaitGroup
		var reads atomic.Int64
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				buf := make([]byte, d.PageSize())
				for page := r; ; page = (page + 4) % d.TotalPages() {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := d.ReadPage(page, buf); err != nil && !errors.Is(err, device.ErrInjected) {
						t.Errorf("read page %d: %v", page, err)
						return
					}
					reads.Add(1)
				}
			}(r)
		}
		for reads.Load() < 5000 { // keep re-arming while reads are in flight
			plan.Arm(d)
		}
		close(stop)
		readers.Wait()

		plan.Arm(d)
		got := writeSequence(t, d, 64)
		fresh := device.NewFaultPlan(11, rules...)
		ref := b.New(t, faultGeom)
		fresh.Arm(ref)
		if want := writeSequence(t, ref, 64); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay after re-arming under traffic faulted %v, a fresh plan %v", got, want)
		}
	})
}
