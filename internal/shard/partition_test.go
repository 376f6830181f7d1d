package shard

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// boundaryChargerSets are the charger layouts of the boundary fixtures,
// with the band each fixture uses.
var boundaryChargerSets = []struct {
	name     string
	chargers []core.Charger
	overlap  float64
}{
	{"edge", []core.Charger{fixCharger("west", 50, 50), fixCharger("east", 150, 50)}, 10},
	{"three-cells", []core.Charger{fixCharger("nw", 50, 50), fixCharger("ne", 150, 50), fixCharger("sw", 50, 150)}, 25},
	{"disjoint", []core.Charger{fixCharger("west", 50, 50), fixCharger("east", 250, 250)}, 0},
	{"reconcile", []core.Charger{fixCharger("west", 50, 50), fixCharger("east", 150, 50)}, 30},
}

// gridDevices lays devices on a lattice over the fixture field, edges
// and corners included, so every fixture geometry sees own-cell,
// band-replicated and ring-searched devices.
func gridDevices(step float64) []core.Device {
	var out []core.Device
	for y := 0.0; y <= 300; y += step {
		for x := 0.0; x <= 300; x += step {
			out = append(out, fixDevice(fmt.Sprintf("g%d", len(out)), x, y))
		}
	}
	return out
}

// TestPartitionDeterministicAcrossWorkers pins the parallel scan: on the
// boundary fixtures, Partition's shard lists, primaries and replication
// count — and the per-device lists Solve reconciles from — are identical
// for Workers 1 and 8 and for any scan block size.
func TestPartitionDeterministicAcrossWorkers(t *testing.T) {
	devices := gridDevices(12.5)
	for _, fx := range boundaryChargerSets {
		var ref *Partition
		for _, workers := range []int{1, 8} {
			p, err := NewPlanner(fixField(), fx.chargers, &core.CCSGAScheduler{}, Config{CellSize: 100, Overlap: fx.overlap, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, block := range []int{1, 7, partitionBlock} {
				part, err := p.partition(devices, block)
				if err != nil {
					t.Fatalf("%s workers %d block %d: %v", fx.name, workers, block, err)
				}
				for k := range part.Shards {
					for i := 1; i < len(part.Shards[k].Devices); i++ {
						if part.Shards[k].Devices[i-1] >= part.Shards[k].Devices[i] {
							t.Fatalf("%s workers %d block %d: shard %d list not ascending", fx.name, workers, block, k)
						}
					}
				}
				if ref == nil {
					ref = part
					continue
				}
				if !reflect.DeepEqual(part.Shards, ref.Shards) || !reflect.DeepEqual(part.Primary, ref.Primary) ||
					part.Replicated != ref.Replicated {
					t.Errorf("%s: partition at workers %d block %d differs from workers 1", fx.name, workers, block)
				}
				for i := range devices {
					if !reflect.DeepEqual(part.shardsOf(i), ref.shardsOf(i)) {
						t.Fatalf("%s: device %d's shards at workers %d block %d differ from workers 1", fx.name, i, workers, block)
					}
				}
			}
		}
		if fx.overlap > 0 && ref.Replicated == 0 {
			t.Errorf("%s: no device replicated; the fixture does not exercise the band", fx.name)
		}
	}
}

// TestPartitionErrorNamesLowestDevice pins the parallel scan's error
// contract: when several devices fit no charger, the error names the
// lowest-index one whatever the worker count and block size.
func TestPartitionErrorNamesLowestDevice(t *testing.T) {
	chargers := []core.Charger{fixCharger("west", 50, 50), fixCharger("east", 250, 250)}
	for j := range chargers {
		chargers[j].Capacity = 150
	}
	devices := gridDevices(25)
	for _, i := range []int{len(devices) - 3, 40, 17} {
		devices[i].Demand = 1000 // fits neither charger
	}
	want := fmt.Sprintf("device 17 (%s)", devices[17].ID)
	for _, workers := range []int{1, 8} {
		p, err := NewPlanner(fixField(), chargers, &core.CCSGAScheduler{}, Config{CellSize: 100, Overlap: 30, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range []int{1, 5, partitionBlock} {
			_, err := p.partition(devices, block)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("workers %d block %d: error %v, want it to name %s", workers, block, err, want)
			}
		}
	}
}
