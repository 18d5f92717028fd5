package chaos_test

import (
	"path/filepath"
	"testing"

	"nemo/internal/backend"
	"nemo/internal/chaos"
)

// specs returns one backend.Spec per device implementation, mirroring
// devtest's sim/file split for the Spec-based harness entry point.
func specs(t *testing.T) map[string]backend.Spec {
	return map[string]backend.Spec{
		"sim":  backend.Sim(),
		"file": backend.File(filepath.Join(t.TempDir(), "chaos.img")),
	}
}

// TestRunWriteOutage is the harness smoke test: a write outage under load
// must shed typed degraded errors (not crash or garble), trip the breaker,
// and — the part a failed run would surface — recover on its own once the
// device heals. Runs on every backend.
func TestRunWriteOutage(t *testing.T) {
	for name, spec := range specs(t) {
		t.Run(name, func(t *testing.T) {
			s, err := chaos.ByName("write-outage")
			if err != nil {
				t.Fatal(err)
			}
			res, err := chaos.Run(chaos.Config{
				Scenario: s,
				Seed:     7,
				Device:   spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.DegradedEntered == 0 {
				t.Error("breaker never tripped under a total write outage")
			}
			if res.DegradedSheds == 0 {
				t.Error("no SETs were shed with SERVER_ERROR degraded")
			}
			if res.InjectedWrites == 0 {
				t.Error("fault plan injected nothing — load never reached the device")
			}
			if res.Served == 0 || res.Availability <= 0 {
				t.Errorf("availability = %v, served = %d; GETs should keep serving",
					res.Availability, res.Served)
			}
			if res.Served+res.DegradedSheds+res.OtherErrors != res.Ops {
				t.Errorf("tally mismatch: served %d + sheds %d + other %d != ops %d",
					res.Served, res.DegradedSheds, res.OtherErrors, res.Ops)
			}
		})
	}
}

// TestRunSlowReads pins the latency-injection path: added read latency must
// not cost availability, and the plan must report the delayed operations.
func TestRunSlowReads(t *testing.T) {
	s, err := chaos.ByName("slow-reads")
	if err != nil {
		t.Fatal(err)
	}
	res, err := chaos.Run(chaos.Config{
		Scenario: s,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability != 1 {
		t.Errorf("availability = %v under latency-only faults, want 1", res.Availability)
	}
	if res.DelayedOps == 0 {
		t.Error("no delayed ops recorded — latency rule never fired")
	}
	if res.DegradedEntered != 0 {
		t.Errorf("breaker tripped %d times under latency-only faults", res.DegradedEntered)
	}
}

// TestByNameUnknown pins the registry error listing.
func TestByNameUnknown(t *testing.T) {
	if _, err := chaos.ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
}
