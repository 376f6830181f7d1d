package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/pricing"
)

func benchModel(b *testing.B, n, m int) *CostModel {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	cm, err := NewCostModel(randInstance(r, n, m))
	if err != nil {
		b.Fatal(err)
	}
	return cm
}

func BenchmarkNoncooperative(b *testing.B) {
	cm := benchModel(b, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Noncooperative(cm)
	}
}

func BenchmarkCCSASFMOracleN20(b *testing.B) {
	cm := benchModel(b, 20, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSA(cm, CCSAOptions{Oracle: SFMOracle}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCCSAPrefixOracleN100(b *testing.B) {
	cm := benchModel(b, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSA(cm, CCSAOptions{Oracle: PrefixOracle}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCCSGAN100(b *testing.B) {
	cm := benchModel(b, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSGA(cm, CCSGAOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalN12(b *testing.B) {
	cm := benchModel(b, 12, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimal(cm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalBnBN14(b *testing.B) {
	cm := benchModel(b, 14, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalBnB(cm, BnBOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShapleyExact12(b *testing.B) {
	cm := benchModel(b, 12, 3)
	members := make([]int, 12)
	for i := range members {
		members[i] = i
	}
	c := Coalition{Charger: 0, Members: members}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Shapley{}).Shares(cm, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanDispatch(b *testing.B) {
	cm := benchModel(b, 30, 5)
	res, err := CCSA(cm, CCSAOptions{Oracle: PrefixOracle})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanDispatch(cm, res.Schedule, 0.02); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMobileModel is benchModel with a heterogeneous fleet: every even
// charger is mobile with a travel budget, so CCSGA pays the tour
// re-planning cost on each join/leave and CCSA runs its budget-aware
// prefix oracle.
func benchMobileModel(b *testing.B, n, m int) *CostModel {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	cm, err := NewCostModel(randMobileInstance(r, n, m))
	if err != nil {
		b.Fatal(err)
	}
	return cm
}

// BenchmarkCCSGAMobileSolve measures the tour-aware game solver at the
// same scale as BenchmarkCCSGAStationarySolve; the pair quantifies what
// the mobility layer costs per solve (tour re-plans per switch) against
// the stationary fast path on the identical geometry.
func BenchmarkCCSGAMobileSolve(b *testing.B) {
	cm := benchMobileModel(b, 100, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSGA(cm, CCSGAOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCSGAStationarySolve is the mobile bench's control: the same
// rng stream and populations with the mobility attributes left zero.
func BenchmarkCCSGAStationarySolve(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	cm, err := NewCostModel(randInstance(r, 100, 10))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSGA(cm, CCSGAOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCSAMobileSolve pins the budget-aware prefix oracle's cost on
// the heterogeneous fleet.
func BenchmarkCCSAMobileSolve(b *testing.B) {
	cm := benchMobileModel(b, 100, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CCSA(cm, CCSAOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// churnInstance is the n-device delta-repair bench field: a
// deterministic spread of devices around 12 uncapacitated chargers with
// mixed Linear/PowerLaw/Tiered tariffs (the layout ccsd's served
// BenchmarkDeltaRepair registers).
func churnInstance(n int) *Instance {
	in := &Instance{Field: geom.Square(1000)}
	for i := 0; i < n; i++ {
		in.Devices = append(in.Devices, Device{
			ID:       fmt.Sprintf("dev-%04d", i),
			Pos:      geom.Pt(float64(137*i%1000), float64(211*i%1000)),
			Demand:   100 + float64(i%7)*40,
			MoveRate: 0.01,
		})
	}
	tariffs := []pricing.Tariff{
		pricing.Linear{Rate: 0.03},
		pricing.PowerLaw{Coeff: 0.25, Exponent: 0.85},
		pricing.MustTiered([]pricing.Tier{{UpTo: 200, Rate: 0.05}, {UpTo: math.Inf(1), Rate: 0.02}}),
	}
	for j := 0; j < 12; j++ {
		in.Chargers = append(in.Chargers, Charger{
			ID:         fmt.Sprintf("ch-%02d", j),
			Pos:        geom.Pt(float64(j%4)*250+125, float64(j/4)*333+167),
			Fee:        5 + float64(j%3),
			Tariff:     tariffs[j%3],
			Efficiency: 0.85 + 0.01*float64(j%5),
		})
	}
	return in
}

// BenchmarkDeltaRepair runs one n=1024 single-device churn stream — one
// of 16 rotating devices leaves, then rejoins with its original
// attributes, and every delta is re-solved — through the incremental
// repair path (ScheduleRepair) and through the full warm solve it is
// tested against (ScheduleWarm). The repair/fullwarm solves/s ratio is
// the BENCH_service.json ccsd_delta_repair headline.
func BenchmarkDeltaRepair(b *testing.B) {
	b.Run("repair", func(b *testing.B) { benchDeltaChurn(b, true) })
	b.Run("fullwarm", func(b *testing.B) { benchDeltaChurn(b, false) })
}

func benchDeltaChurn(b *testing.B, repair bool) {
	in := churnInstance(1024)
	churn := slices.Clone(in.Devices[:16])
	cm, err := NewCostModel(in)
	if err != nil {
		b.Fatal(err)
	}
	sched, ws, rs := CCSGAScheduler{}, NewWarmStart(), NewRepairState()
	solve := func() (*CCSGAResult, error) {
		if repair {
			return sched.ScheduleRepair(cm, ws, rs)
		}
		return sched.ScheduleWarm(cm, ws)
	}
	if _, err := solve(); err != nil {
		b.Fatal(err)
	}
	repaired := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := churn[(i/2)%len(churn)]
		if i%2 == 0 {
			err = cm.RemoveDevice(slices.IndexFunc(cm.Instance().Devices, func(x Device) bool { return x.ID == d.ID }))
		} else {
			err = cm.AddDevice(d)
		}
		if err != nil {
			b.Fatal(err)
		}
		res, err := solve()
		if err != nil {
			b.Fatal(err)
		}
		if res.Repaired {
			repaired++
		}
	}
	b.StopTimer()
	if repair && repaired == 0 {
		b.Fatal("repair variant never took the repair path")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "solves/s")
}
