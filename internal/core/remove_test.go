package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
)

// removalFixture is one cost model with a WarmStart and, optionally, a
// RepairState that has primed and then repaired once (so its join memo
// is allocated and partly stamped before the removals under test).
type removalFixture struct {
	cm *CostModel
	ws *WarmStart
	rs *RepairState
}

func newRemovalFixture(t *testing.T, in *Instance, withRepair bool) *removalFixture {
	t.Helper()
	f := &removalFixture{cm: mustCostModel(t, cloneInstance(in)), ws: NewWarmStart()}
	if !withRepair {
		return f
	}
	sched := CCSGAScheduler{Opts: CCSGAOptions{RepairMaxFrontier: 1}}
	f.rs = NewRepairState()
	if _, err := sched.ScheduleRepair(f.cm, f.ws, f.rs); err != nil {
		t.Fatal(err)
	}
	// A position drift dirties one slot without touching total demand,
	// so even a capacitated layout stays put and the repair runs.
	d := f.cm.Instance().Devices[0]
	d.Pos = in.Field.Clamp(geom.Pt(d.Pos.X+30, d.Pos.Y-20))
	if err := f.cm.UpdateDevice(0, d); err != nil {
		t.Fatal(err)
	}
	res, err := sched.ScheduleRepair(f.cm, f.ws, f.rs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired {
		t.Fatalf("fixture repair fell back: %s", res.FallbackReason)
	}
	return f
}

// sameModelTables fails unless the two models' tables are bit-identical.
func sameModelTables(t *testing.T, tag string, got, want *CostModel) {
	t.Helper()
	if !reflect.DeepEqual(got.inst.Devices, want.inst.Devices) {
		t.Fatalf("%s: devices differ", tag)
	}
	if got.NumDevices() != want.NumDevices() {
		t.Fatalf("%s: %d devices, want %d", tag, got.NumDevices(), want.NumDevices())
	}
	for i := 0; i < got.NumDevices(); i++ {
		gs, gj := got.StandaloneCost(i)
		ws, wj := want.StandaloneCost(i)
		if math.Float64bits(gs) != math.Float64bits(ws) || gj != wj {
			t.Fatalf("%s: standalone[%d] = (%v,%d), want (%v,%d)", tag, i, gs, gj, ws, wj)
		}
		for j := 0; j < got.NumChargers(); j++ {
			if math.Float64bits(got.MovingCost(i, j)) != math.Float64bits(want.MovingCost(i, j)) {
				t.Fatalf("%s: move[%d][%d] differs", tag, i, j)
			}
		}
	}
}

// sameRepairState fails unless two repair states hold the same
// per-device tables, memo and dirty set.
func sameRepairState(t *testing.T, tag string, got, want *RepairState) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"assign", got.assign, want.assign},
		{"share", got.share, want.share},
		{"cur", got.game.cur, want.game.cur},
		{"sigma", got.game.sigma, want.game.sigma},
		{"joinShare", got.joinShare, want.joinShare},
		{"joinStamp", got.joinStamp, want.joinStamp},
		{"dirty", got.dirty, want.dirty},
		{"unseeded", got.unseeded, want.unseeded},
		{"layoutSuspect", got.layoutSuspect, want.layoutSuspect},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: repair state %s differs:\n got %v\nwant %v", tag, c.name, c.got, c.want)
		}
	}
}

// keepRows returns the per-device tables rs should hold after the
// devices idx leave, built row by row from a snapshot: an expectation
// that shares no code with the compaction under test.
func keepRows(rs *RepairState, idx []int) *RepairState {
	gone := make(map[int]bool, len(idx))
	for _, i := range idx {
		gone[i] = true
	}
	want := &RepairState{
		game:          &chargerGame{},
		dirty:         make(map[int]struct{}),
		unseeded:      rs.unseeded,
		layoutSuspect: rs.layoutSuspect || rs.cm.HasCapacity(),
	}
	for s := range rs.dirty {
		want.dirty[s] = struct{}{}
	}
	for i := range rs.assign {
		if gone[i] {
			want.dirty[rs.assign[i]] = struct{}{}
			continue
		}
		want.assign = append(want.assign, rs.assign[i])
		want.share = append(want.share, rs.share[i])
		want.game.cur = append(want.game.cur, rs.game.cur[i])
		want.game.sigma = append(want.game.sigma, rs.game.sigma[i])
		row := rs.memoSlots
		want.joinShare = append(want.joinShare, rs.joinShare[i*row:(i+1)*row]...)
		want.joinStamp = append(want.joinStamp, rs.joinStamp[i*row:(i+1)*row]...)
	}
	return want
}

// TestRemoveDevicesMatchesSingleRemovals pins the batch removal to the
// one-at-a-time path it replaced: over random instances, with and
// without a primed RepairState attached, RemoveDevices must leave the
// model tables — and the repair state's per-device tables and join memo
// — bit-identical to removing the same devices one by one from the
// highest index down, and the model bit-identical to a fresh
// NewCostModel over the shrunken instance. The ScheduleRepair after the
// removal must then be byte-identical on both sides.
func TestRemoveDevicesMatchesSingleRemovals(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, withRepair := range []bool{false, true} {
			tag := fmt.Sprintf("seed %d repair=%v", seed, withRepair)
			r := rand.New(rand.NewSource(seed))
			in := warmInstance(r, 8+r.Intn(10), 2+r.Intn(3), seed%3 == 0)
			batch := newRemovalFixture(t, in, withRepair)
			single := newRemovalFixture(t, in, withRepair)

			n := batch.cm.NumDevices()
			idx := r.Perm(n)[:1+r.Intn(n-2)]
			sort.Ints(idx)
			var expect *RepairState
			if withRepair {
				expect = keepRows(batch.rs, idx)
			}
			if err := batch.cm.RemoveDevices(idx); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for k := len(idx) - 1; k >= 0; k-- {
				if err := single.cm.RemoveDevice(idx[k]); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
			}
			sameModelTables(t, tag+" batch vs single", batch.cm, single.cm)
			fresh := mustCostModel(t, cloneInstance(batch.cm.Instance()))
			sameModelTables(t, tag+" batch vs fresh", batch.cm, fresh)
			if !withRepair {
				continue
			}
			sameRepairState(t, tag+" batch vs single", batch.rs, single.rs)
			sameRepairState(t, tag+" batch vs expected", batch.rs, expect)

			sched := CCSGAScheduler{Opts: CCSGAOptions{RepairMaxFrontier: 1}}
			got, err := sched.ScheduleRepair(batch.cm, batch.ws, batch.rs)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			want, err := sched.ScheduleRepair(single.cm, single.ws, single.rs)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if !reflect.DeepEqual(got.Schedule, want.Schedule) {
				t.Fatalf("%s: repaired schedules differ", tag)
			}
			if gb, wb := math.Float64bits(batch.cm.TotalCost(got.Schedule)), math.Float64bits(single.cm.TotalCost(want.Schedule)); gb != wb {
				t.Fatalf("%s: cost bits %x, want %x", tag, gb, wb)
			}
			if got.Passes != want.Passes || got.Switches != want.Switches ||
				got.Repaired != want.Repaired || got.FallbackReason != want.FallbackReason {
				t.Fatalf("%s: diagnostics differ: %+v vs %+v", tag, got, want)
			}
		}
	}
}

// TestRemoveDevicesValidation pins the validate-before-mutate contract:
// an unsorted, duplicate or out-of-range index list is rejected and
// leaves the model and its attached repair state untouched.
func TestRemoveDevicesValidation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := warmInstance(r, 8, 3, false)
	for _, idx := range [][]int{
		{3, 1},     // descending
		{1, 4, 2},  // unsorted
		{2, 2},     // duplicate
		{0, 8},     // past the end
		{-1, 3},    // negative
		{1, 5, 99}, // valid prefix, then out of range
	} {
		f := newRemovalFixture(t, in, true)
		ref := newRemovalFixture(t, in, true)
		if err := f.cm.RemoveDevices(idx); err == nil {
			t.Errorf("RemoveDevices(%v) accepted", idx)
		}
		tag := fmt.Sprintf("RemoveDevices(%v)", idx)
		sameModelTables(t, tag, f.cm, ref.cm)
		sameRepairState(t, tag, f.rs, ref.rs)
	}
	f := newRemovalFixture(t, in, false)
	if err := f.cm.RemoveDevices(nil); err != nil {
		t.Errorf("empty removal: %v", err)
	}
	if f.cm.NumDevices() != len(in.Devices) {
		t.Errorf("empty removal changed the device count to %d", f.cm.NumDevices())
	}
}

// TestRemoveDevicesThenAdd checks the compacted tables stay usable for
// later growth: removing devices and adding new ones must match a fresh
// model over the final instance.
func TestRemoveDevicesThenAdd(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := warmInstance(r, 12, 3, false)
	cm := mustCostModel(t, cloneInstance(in))
	if err := cm.RemoveDevices([]int{0, 5, 6, 11}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		d := Device{
			ID:       fmt.Sprintf("late-%d", k),
			Pos:      geom.UniformPoints(r, in.Field, 1)[0],
			Demand:   50 + r.Float64()*300,
			MoveRate: 0.005 + r.Float64()*0.02,
		}
		if err := cm.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	sameModelTables(t, "remove then add", cm, mustCostModel(t, cloneInstance(cm.Instance())))
}
