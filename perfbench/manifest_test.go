package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesMetrics keeps BENCHMARK.json at the repository root
// in step with the metrics and workloads this program reports.
func TestManifestMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, the program runs %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("manifest workload %q unknown to the program", w.Name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest has %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: manifest %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, d := range m.EndToEnd {
		e2e = append(e2e, metricDef{d.Name, d.Unit})
	}
	for _, d := range m.PerLayer {
		layer = append(layer, metricDef{d.Name, d.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}
