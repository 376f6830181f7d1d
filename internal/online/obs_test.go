package online

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// TestRunExportsObsMetrics pins the registry wiring: the CCSGA
// scheduler's per-round diagnostics land in the labeled online_* series,
// and the counter values agree exactly with the returned Metrics.
func TestRunExportsObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		Chargers:  testChargers(),
		Arrivals:  testArrivals(t, 30, 600),
		Policy:    Threshold{K: 5},
		Scheduler: core.CCSGAScheduler{},
		Field:     geom.Square(1000),
		Obs:       reg,
	}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	label := `{scheduler="CCSGA"}`
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	snap := sb.String()
	for _, want := range []string{
		fmt.Sprintf("online_rounds_total%s %d", label, m.Rounds),
		fmt.Sprintf("online_devices_served_total%s %d", label, m.Served),
		fmt.Sprintf("online_passes_total%s %d", label, m.TotalPasses),
		fmt.Sprintf("online_switches_total%s %d", label, m.TotalSwitches),
		fmt.Sprintf("online_deadline_misses_total%s %d", label, m.DeadlineMisses),
		fmt.Sprintf("online_unstable_rounds_total%s 0", label),
		fmt.Sprintf(`online_batch_devices_count%s %d`, label, m.Rounds),
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("exposition missing %q:\n%s", want, snap)
		}
	}
	if m.TotalPasses == 0 {
		t.Error("CCSGA run reported zero passes — diagnostics not flowing")
	}
}

// TestRunMetricsIdenticalWithObs pins the zero-interference contract:
// attaching a registry must not change a single field of the returned
// Metrics.
func TestRunMetricsIdenticalWithObs(t *testing.T) {
	for _, sched := range []core.Scheduler{core.CCSAScheduler{}, core.CCSGAScheduler{}} {
		cfg := Config{
			Chargers:  testChargers(),
			Arrivals:  testArrivals(t, 30, 600),
			Policy:    Periodic{Interval: 300},
			Scheduler: sched,
			Field:     geom.Square(1000),
		}
		plain, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Obs = obs.NewRegistry()
		instrumented, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, instrumented) {
			t.Errorf("%s: Metrics changed when Obs attached:\nplain        %+v\ninstrumented %+v",
				sched.Name(), plain, instrumented)
		}
	}
}
