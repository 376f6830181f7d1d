package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/instcache"
)

// solveDiag sums the solver diagnostics a replay pass observed.
type solveDiag struct {
	ccsgaSolves, passes, switches int
}

// replaySolve performs what ccsd does for one stateless request line,
// through the same exported calls and with fresh caches of ccsd's
// default size: the raw-byte tier lookup, instance decode, fingerprint,
// solution-cache lookup and, on a miss, model build and solve. Each call
// is a span; the envelope decode and reply rendering stay ccsd's own
// time, which the traced run reports as ccsd.self_ms.
func replaySolve(tr *tracer, raw *instcache.ByteCache, cache *instcache.Cache,
	line, body []byte, it *solveItem, diag *solveDiag) error {
	id := tr.begin("instcache.lookup")
	sum := sha256.Sum256(line)
	_, hit := raw.Get(sum)
	tr.end(id, "")
	if hit {
		return nil
	}
	id = tr.begin("gen.decode")
	in, err := gen.DecodeInstance(body)
	tr.end(id, "")
	if err != nil {
		return err
	}
	id = tr.begin("instcache.key")
	key, err := instcache.KeyFor(in, it.sched, "")
	tr.end(id, "")
	if err != nil {
		return err
	}
	id = tr.begin("instcache.lookup")
	_, _, _, err = cache.Do(key, func() (*core.Schedule, float64, error) {
		b := tr.begin("core.build")
		cm, err := core.NewCostModel(in)
		tr.end(b, "")
		if err != nil {
			return nil, 0, err
		}
		s := tr.begin("core.solve." + it.class)
		defer tr.end(s, "")
		if it.sched == "CCSGA" {
			res, err := core.CCSGAScheduler{}.ScheduleWarm(cm, nil)
			if err != nil {
				return nil, 0, err
			}
			diag.ccsgaSolves++
			diag.passes += res.Passes
			diag.switches += res.Switches
			return res.Schedule, cm.TotalCost(res.Schedule), nil
		}
		plan, err := core.CCSAScheduler{}.Schedule(cm)
		if err != nil {
			return nil, 0, err
		}
		return plan, cm.TotalCost(plan), nil
	})
	if err == nil {
		raw.Put(sum, []byte{})
	}
	tr.end(id, "")
	return err
}

// traceSolve replays the warm-up's and the unloaded probe's
// requests in order — the requests that reached the server first, so
// fresh replay caches see what the server's saw — once without spans
// and once with (twice each, alternating, after an untimed pass), and
// reports the per-layer metrics of a stateless workload.
func traceSolve(res *outcome, sr *servedRun, items []*solveItem) error {
	type req struct {
		line, body []byte
		it         *solveItem
		servedMs   float64
		unloaded   bool // from the unloaded probe: has a served time to compare
	}
	var reqs []req
	bytesTotal := 0
	for _, ph := range []*phase{sr.warmup, sr.probe} {
		for _, s := range ph.samples {
			var line []byte
			for _, b := range s.req {
				line = append(line, b...)
			}
			bytesTotal += len(line)
			reqs = append(reqs, req{line: line[:len(line)-1], body: s.req[1], it: items[s.tag],
				servedMs: s.latMs, unloaded: ph != sr.warmup})
		}
	}
	pass := func(tr *tracer) (time.Duration, solveDiag, error) {
		var diag solveDiag
		raw, err := instcache.NewBytes(cacheSize)
		if err != nil {
			return 0, diag, err
		}
		cache, err := instcache.New(cacheSize)
		if err != nil {
			return 0, diag, err
		}
		runtime.GC()
		start := time.Now()
		for k, r := range reqs {
			if tr != nil {
				tr.req = k
			}
			if err := replaySolve(tr, raw, cache, r.line, r.body, r.it, &diag); err != nil {
				return 0, diag, err
			}
		}
		return time.Since(start), diag, nil
	}
	var plain, traced, wall time.Duration
	var tr *tracer
	var diag solveDiag
	if _, _, err := pass(nil); err != nil { // warm-up
		return fmt.Errorf("replay: %w", err)
	}
	for rep := 0; rep < 2; rep++ {
		d, _, err := pass(nil)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		plain += d
		tr = newTracer()
		if wall, diag, err = pass(tr); err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		traced += wall
	}
	byName, covered, perReq := tr.summary()
	per := func(name string, n int) float64 {
		st := byName[name]
		if st == nil || n == 0 {
			return 0
		}
		return float64(st.self) / float64(time.Microsecond) / float64(n)
	}
	count := func(name string) int {
		if st := byName[name]; st != nil {
			return st.count
		}
		return 0
	}
	L := res.layer
	L["gen.decode_us"] = per("gen.decode", count("gen.decode"))
	L["instcache.key_us"] = per("instcache.key", count("instcache.key"))
	L["instcache.lookup_us"] = per("instcache.lookup", len(reqs))
	L["core.build_us"] = per("core.build", count("core.build"))
	for _, c := range []string{"ccsa", "ccsga", "mobile"} {
		L["core.solve_us."+c] = per("core.solve."+c, count("core.solve."+c))
	}
	if diag.ccsgaSolves > 0 {
		L["core.passes"] = float64(diag.passes) / float64(diag.ccsgaSolves)
		L["core.switches"] = float64(diag.switches) / float64(diag.ccsgaSolves)
	}
	L["gen.request_kb"] = float64(bytesTotal) / float64(len(reqs)) / 1024
	var self []float64
	for k, r := range reqs {
		if r.unloaded {
			self = append(self, r.servedMs-float64(perReq[k])/float64(time.Millisecond))
		}
	}
	L["ccsd.self_ms"] = median(self)
	replayCoverage(res, wall, covered, traced, plain)

	// Allocation counts come from their own untimed loops, since reading
	// the allocator's counters inside a span would dominate it. They run
	// over the first allocSample distinct instances the replay saw.
	var bodies [][]byte
	var its []*solveItem
	seen := map[*solveItem]bool{}
	for _, r := range reqs {
		if len(its) < allocSample && !seen[r.it] {
			seen[r.it] = true
			bodies, its = append(bodies, r.body), append(its, r.it)
		}
	}
	decodeAllocs, solveAllocs, err := solveAllocCounts(bodies, its)
	if err != nil {
		return err
	}
	L["gen.decode_allocs"] = decodeAllocs
	L["core.solve_allocs"] = solveAllocs
	return nil
}

// allocSample is how many distinct instances the allocation counts
// decode and solve.
const allocSample = 256

// solveAllocCounts reports heap allocations per instance decode and per
// solve over the given request bodies.
func solveAllocCounts(bodies [][]byte, its []*solveItem) (float64, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range bodies {
		if _, err := gen.DecodeInstance(b); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	decodeAllocs := float64(m1.Mallocs-m0.Mallocs) / float64(len(bodies))
	cms := make([]*core.CostModel, len(bodies))
	for k, b := range bodies {
		in, _ := gen.DecodeInstance(b)
		cm, err := core.NewCostModel(in)
		if err != nil {
			return 0, 0, err
		}
		cms[k] = cm
	}
	runtime.ReadMemStats(&m0)
	for k, cm := range cms {
		var err error
		if its[k].sched == "CCSGA" {
			_, err = core.CCSGAScheduler{}.ScheduleWarm(cm, nil)
		} else {
			_, err = core.CCSAScheduler{}.Schedule(cm)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return decodeAllocs, float64(m1.Mallocs-m0.Mallocs) / float64(len(cms)), nil
}

// replayCoverage reports the last traced replay's wall time and the
// share its layer spans cover (the rest is replay.other), and the tracing
// overhead: all traced passes against all untraced passes of the same
// inputs.
func replayCoverage(res *outcome, wall, covered, traced, plain time.Duration) {
	cov := 100 * float64(covered) / float64(wall)
	res.layer["replay.wall_ms"] = float64(wall) / float64(time.Millisecond)
	res.layer["replay.coverage_pct"] = cov
	res.layer["replay.other_pct"] = 100 - cov
	res.layer["replay.trace_overhead_pct"] = 100 * (float64(traced) - float64(plain)) / float64(plain)
	res.guard(cov >= 95, "layer spans cover %.1f%% of the replay, below 95%%", cov)
}
