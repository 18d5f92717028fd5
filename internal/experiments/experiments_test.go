package experiments

import "testing"

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must be registered.
	want := []string{
		"fig4", "fig5", "fig6", "fig8",
		"fig12a", "fig12b", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19a", "fig19b",
		"tab3", "tab4", "tab5", "tab6",
		"sec32", "sec55", "appA",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestGeometryScales(t *testing.T) {
	small := geometryFor(Options{Scale: "small"})
	med := geometryFor(Options{Scale: "medium"})
	large := geometryFor(Options{Scale: "large"})
	if !(small.capacityBytes() < med.capacityBytes() && med.capacityBytes() < large.capacityBytes()) {
		t.Fatal("scales not monotone")
	}
	if g := geometryFor(Options{Scale: "medium", Ops: 123}); g.ops(Options{Ops: 123}) != 123 {
		t.Fatal("ops override ignored")
	}
}

func TestMaxDataZonesLeavesIndexRoom(t *testing.T) {
	for _, zones := range []int{16, 56, 120, 288} {
		d := maxDataZones(zones, 50)
		if d < 2 {
			t.Fatalf("zones=%d: no data zones", zones)
		}
		idx := d + indexZonesForTest(d)
		if idx > zones {
			t.Fatalf("zones=%d: data %d + index overflows device", zones, d)
		}
	}
}

func indexZonesForTest(d int) int {
	return (d+49)/50 + 2
}
