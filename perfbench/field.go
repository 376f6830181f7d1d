package main

// The field-rounds workload: in-process shard.Planner rounds over the
// 50k-device / 500-charger gen.LargeField geometry, with devices leaving
// and re-joining between rounds. It is the only workload that reaches
// internal/shard, and it has no served path to dilute the shard numbers.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/shard"
)

const (
	fieldDevices  = 50000
	fieldChargers = 500
	fieldPool     = fieldDevices + fieldDevices/10 // devices that may be present
	fieldChurn    = fieldDevices / 50              // leaves and joins per round
	fieldMinRound = 3                              // measured rounds, at least
	fieldHashed   = 3                              // rounds in the answer hash
)

// fieldSeed is the instance seed of BenchmarkShardScale50k. Every run
// solves that one field, and the run's own seed drives only the churn
// between rounds: a different random 50k-device field per seed changes
// the solver's work per round by up to a third, which would bury the
// changes the workload is there to show.
const fieldSeed = 2021

// fieldSetup is the field: the device pool, the chargers and the shard
// geometry of the BenchmarkShardScale50k smoke.
type fieldSetup struct {
	in  *core.Instance
	cfg shard.Config
}

func newFieldSetup() (*fieldSetup, error) {
	p := gen.LargeField(fieldDevices, fieldChargers)
	// The pool holds the present population plus the devices churn
	// brings back, on the 50k field's geometry.
	p.NumDevices = fieldPool
	in, err := gen.Instance(fieldSeed, p)
	if err != nil {
		return nil, err
	}
	// About sqrt(m)/2 cells per side with a quarter-cell overlap band, as
	// the shard scale tests and the ext5-scale experiment use.
	cells := 2.0
	for cells*cells*16 < fieldChargers {
		cells++
	}
	cell := p.FieldSide / cells
	return &fieldSetup{in: in, cfg: shard.Config{CellSize: cell, Overlap: cell / 4, Workers: runtime.NumCPU()}}, nil
}

// fieldRounds generates the population of each round: round 0 is the
// first fieldDevices of the pool; each later round drops fieldChurn
// present devices and brings back as many absent ones. Devices keep pool
// order, so a round's slice is canonical for its membership.
type fieldRounds struct {
	fs      *fieldSetup
	present []bool
	seed    int64
	round   int
}

func newFieldRounds(fs *fieldSetup, seed int64) *fieldRounds {
	fr := &fieldRounds{fs: fs, present: make([]bool, fieldPool), seed: seed}
	for i := 0; i < fieldDevices; i++ {
		fr.present[i] = true
	}
	return fr
}

// next returns the next round's devices and their pool indices.
func (fr *fieldRounds) next() ([]core.Device, []int) {
	if fr.round > 0 {
		r := streamRand(fr.seed, "field-churn", fr.round)
		var in, out []int
		for i, p := range fr.present {
			if p {
				in = append(in, i)
			} else {
				out = append(out, i)
			}
		}
		r.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
		r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		for k := 0; k < fieldChurn; k++ {
			fr.present[in[k]] = false
			fr.present[out[k]] = true
		}
	}
	fr.round++
	devs := make([]core.Device, 0, fieldDevices)
	idx := make([]int, 0, fieldDevices)
	for i, p := range fr.present {
		if p {
			devs = append(devs, fr.fs.in.Devices[i])
			idx = append(idx, i)
		}
	}
	return devs, idx
}

// checkRound validates one round's result: a valid schedule of the
// round's devices that every shard verified as a pure Nash equilibrium.
func checkRound(res *shard.Result, n int) error {
	if err := res.Schedule.Validate(n, fieldChargers); err != nil {
		return err
	}
	if !res.NashStable {
		return fmt.Errorf("round not Nash-stable")
	}
	return nil
}

func runField(o *options) (*outcome, error) {
	fs, err := newFieldSetup()
	if err != nil {
		return nil, err
	}
	sched := &core.CCSGAScheduler{}
	res := newOutcome()
	hash := sha256.New()
	var firstErr error
	record := func(r *shard.Result, n int, hashed bool) {
		res.attempted++
		if err := checkRound(r, n); err != nil {
			res.failed++
			if firstErr == nil {
				firstErr = err
			}
		}
		if hashed {
			hash.Write(shard.EncodeSchedule(r.Schedule))
			fmt.Fprintf(hash, "%x\n", math.Float64bits(r.TotalCost))
		}
	}

	// Set-up, three times: a planner over the chargers and its cold
	// first round. The last planner carries on.
	var setups []float64
	var planner *shard.Planner
	var fr *fieldRounds
	for k := 0; k < 3; k++ {
		fr = newFieldRounds(fs, o.seed)
		devs, _ := fr.next()
		runtime.GC()
		t0, st := time.Now(), startSteal()
		if planner, err = shard.NewPlanner(fs.in.Field, fs.in.Chargers, sched, fs.cfg); err != nil {
			return nil, err
		}
		r, err := planner.Solve(devs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds()*(1-st.share()))
		record(r, len(devs), k == 2)
	}

	// Measured rounds, for -seconds (and at least fieldMinRound).
	var secs []float64
	var rounds [][]int
	var results []*shard.Result
	cpu0, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	var busy time.Duration
	for len(secs) < fieldMinRound || busy.Seconds() < o.seconds {
		devs, idx := fr.next()
		t0, st := time.Now(), startSteal()
		r, err := planner.Solve(devs)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		busy += d
		secs = append(secs, d.Seconds()*(1-st.share()))
		record(r, len(devs), len(secs) < fieldHashed)
		rounds = append(rounds, idx)
		results = append(results, r)
	}
	cpu1, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	if firstErr != nil {
		res.detail["first_failure"] = firstErr.Error()
	}
	res.answerHash = fmt.Sprintf("%x", hash.Sum(nil))

	// The noncooperative baseline of every round, from each pool
	// device's standalone cost against the whole charger set.
	alone, err := standaloneCosts(fs.in)
	if err != nil {
		return nil, err
	}
	var cost, noncoop float64
	for k, idx := range rounds {
		for _, i := range idx {
			noncoop += alone[i]
		}
		cost += results[k].TotalCost
	}

	p50 := median(append([]float64(nil), secs...))
	E := res.e2e
	E["latency_p50_ms"] = 1000 * p50
	kept := 0.0
	for _, d := range secs {
		kept += d
	}
	E["throughput_rps"] = float64(len(secs)) / kept
	E["devices_per_s"] = fieldDevices / p50
	E["cpu_ms_per_op"] = 1000 * (cpu1 - cpu0) / float64(len(secs))
	E["setup_s"] = median(append([]float64(nil), setups...))
	E["cost_saving_pct"] = 100 * (noncoop - cost) / noncoop
	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	E["rss_peak_mb"] = rss
	res.detail["round_s"] = secs
	res.detail["setups_s"] = setups
	if o.trace {
		if err := traceField(res, fs, o.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// standaloneCosts returns every pool device's cheapest singleton session
// cost over the whole charger set, from cost models built in batches.
func standaloneCosts(in *core.Instance) ([]float64, error) {
	const batch = 2000
	out := make([]float64, len(in.Devices))
	err := parallel((len(in.Devices)+batch-1)/batch, func(b int) error {
		lo, hi := b*batch, min((b+1)*batch, len(in.Devices))
		sub := &core.Instance{Field: in.Field, Devices: in.Devices[lo:hi], Chargers: in.Chargers}
		cm, err := core.NewCostModel(sub)
		if err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			out[i], _ = cm.StandaloneCost(i - lo)
		}
		return nil
	})
	return out, err
}

// traceField replays the cold round and two churn rounds on a fresh
// planner, once untraced and once with spans around Partition and
// Solve. Solve partitions again internally, so shard.solve_ms is the
// Solve span minus the Partition span: per-shard solves, reconcile and
// re-solve, which cannot be told apart from outside.
func traceField(res *outcome, fs *fieldSetup, seed int64) error {
	const rounds = 3
	fr := newFieldRounds(fs, seed)
	var devs [][]core.Device
	for k := 0; k < rounds; k++ {
		d, _ := fr.next()
		devs = append(devs, d)
	}
	var results []*shard.Result
	pass := func(tr *tracer) (time.Duration, error) {
		results = results[:0]
		runtime.GC()
		start := time.Now()
		id := tr.begin("shard.plan")
		planner, err := shard.NewPlanner(fs.in.Field, fs.in.Chargers, &core.CCSGAScheduler{}, fs.cfg)
		tr.end(id, "")
		if err != nil {
			return 0, err
		}
		for _, d := range devs {
			id := tr.begin("shard.partition")
			_, err := planner.Partition(d)
			tr.end(id, "")
			if err != nil {
				return 0, err
			}
			id = tr.begin("shard.solve")
			r, err := planner.Solve(d)
			tr.end(id, "")
			if err != nil {
				return 0, err
			}
			results = append(results, r)
		}
		return time.Since(start), nil
	}
	plain, err := pass(nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	wall, err := pass(tr)
	if err != nil {
		return err
	}
	byName, covered, _ := tr.summary()
	ms := func(name string) float64 {
		if st := byName[name]; st != nil {
			return float64(st.self) / float64(time.Millisecond) / float64(st.count)
		}
		return 0
	}
	L := res.layer
	L["shard.partition_ms"] = ms("shard.partition")
	L["shard.solve_ms"] = ms("shard.solve") - ms("shard.partition")
	var repl, reas, passes, switches float64
	for k, r := range results {
		repl += float64(r.Replicated) / float64(len(devs[k]))
		reas += float64(r.Reassigned)
		passes += float64(r.Passes)
		switches += float64(r.Switches)
	}
	n := float64(len(results))
	L["shard.replicated_frac"] = repl / n
	L["shard.reassigned"] = reas / n
	L["shard.passes"] = passes / n
	L["shard.switches"] = switches / n
	replayCoverage(res, wall, covered, wall, plain)
	return nil
}
