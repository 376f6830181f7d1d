package main

// The served workloads share one measurement plan: after a fixed-count
// warm-up and a fixed-count unloaded probe, the run is split into short
// rounds, and every round runs each phase once — an unloaded
// single-connection sample and a closed loop on every connection (and,
// in a traced run, the fixed-rate open loop). Each wall-clock metric is
// the median over rounds of that round's reading, corrected for the CPU
// time the hypervisor stole during it (see stealMeter), so neither a
// slow stretch of a shared machine nor a steadily busy host sets a
// figure.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// rounds is how many times a run repeats its phases.
const rounds = 12

// launches is how many times a served workload starts ccsd during set-up
// (keeping the last); setup_s reports the median.
const launches = 25

// Shares of each round's time. A traced run adds the fixed-rate open
// loop, whose readings are per-layer only, and gives it fixedShare.
const (
	serviceShare = 0.5
	closedShare  = 0.5
	fixedShare   = 0.4
)

// fixedRequests is how many requests a traced run offers at the fixed
// rate, at least: enough that their p99 has minBeyond replies beyond it.
const fixedRequests = 100*minBeyond + 10

// served is what a served workload hands runRounds.
type served struct {
	shape solveShape
	feed  feed
	cs    []*client
	srv   *server
	// prepare, when set, runs before each phase (untimed) with an upper
	// bound on how many requests the phase may take per connection.
	prepare func(perConn int) error
}

// loadConns is how many connections the load generator drives: nproc,
// at most two.
func loadConns() int { return min(2, runtime.NumCPU()) }

// start launches ccsd `launches` times, keeping the last server, and
// connects the load generator to it; it returns each launch's time to
// ready, scaled by the share of the launches' time the hypervisor did
// not steal. The caller stops sv.srv and closes sv.cs.
func (sv *served) start(bin string, p proto) ([]float64, error) {
	var ready []float64
	st := startSteal()
	for k := 0; k < launches; k++ {
		sv.srv.stop()
		s, d, err := startServer(bin)
		if err != nil {
			return nil, err
		}
		sv.srv = s
		ready = append(ready, d.Seconds())
	}
	kept := 1 - st.share()
	for k := range ready {
		ready[k] *= kept
	}
	var err error
	sv.cs, err = dialN(sv.srv.addr, p, loadConns())
	return ready, err
}

// timed runs one timed phase with the load generator's own garbage
// collector held off, after collecting what the set-up left behind, so
// the generator does not take CPU from the server it measures. It
// records the host's steal share over the phase.
func timed(run func() *phase) *phase {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := startSteal()
	ph := run()
	ph.steal = st.share()
	return ph
}

// runRounds drives the served workload for about the given number of
// seconds; withFixed adds the fixed-rate open loop to every round.
func runRounds(sv *served, seconds float64, withFixed bool, sr *servedRun) error {
	per := seconds / rounds
	if withFixed {
		per /= 1 + fixedShare
	}
	dur := func(share float64) time.Duration { return time.Duration(share * per * float64(time.Second)) }
	serviceDur, closedDur := dur(serviceShare), dur(closedShare)
	// The fixed-rate phases together take at least fixedRequests, so
	// their pooled p99 has minBeyond replies beyond it.
	fixedDur := max(dur(fixedShare), time.Duration(float64(fixedRequests)/sv.shape.rate/rounds*float64(time.Second)))
	conns := len(sv.cs)
	sr.conns = conns
	sr.nice = sv.srv.nice
	prep := func(perConn int) error {
		if sv.prepare == nil {
			return nil
		}
		return sv.prepare(perConn)
	}
	sr.service, sr.fixed, sr.closed = &phase{}, &phase{}, &phase{}
	// Warm up first, so caches fill and the server's heap settles before
	// anything is timed, then take a fixed-count unloaded probe. Both are
	// checked like every other phase and, as their requests depend on
	// the seed alone, make up the answer hash.
	if err := prep(sv.shape.warmup); err != nil {
		return err
	}
	sr.warmup = closedLoop(sv.cs, sv.feed, 0, sv.shape.warmup)
	if err := prep(sv.shape.probe); err != nil {
		return err
	}
	sr.probe = timed(func() *phase { return closedLoop(sv.cs[:1], sv.feed, 0, sv.shape.probe) })
	sr.hashed = []*phase{sr.warmup, sr.probe}
	// A time-bounded phase may take as many requests as the server can
	// answer; bound it by the probe's service time.
	svc := max(mean(sr.probe.lats())/1000, 1e-5)
	bound := func(d time.Duration) int { return int(2*d.Seconds()/svc) + 1 }
	for k := 0; k < rounds; k++ {
		if err := prep(bound(serviceDur)); err != nil {
			return err
		}
		ph := timed(func() *phase { return closedLoop(sv.cs[:1], sv.feed, serviceDur, 0) })
		sr.service.merge(ph)
		sr.serviceRounds = append(sr.serviceRounds, ph)

		if err := prep(bound(closedDur)); err != nil {
			return err
		}
		cpu0, err := procCPUSeconds(sv.srv.pid())
		if err != nil {
			return err
		}
		ph = timed(func() *phase { return closedLoop(sv.cs, sv.feed, closedDur, 0) })
		cpu1, err := procCPUSeconds(sv.srv.pid())
		if err != nil {
			return err
		}
		ph.serverCPU = cpu1 - cpu0
		sr.closed.merge(ph)
		sr.closedRounds = append(sr.closedRounds, ph)

		if withFixed {
			if err := prep(int(sv.shape.rate*fixedDur.Seconds())/conns + 1); err != nil {
				return err
			}
			ph = timed(func() *phase { return openLoop(sv.cs, sv.feed, sv.shape.rate, fixedDur) })
			sr.fixed.merge(ph)
			sr.fixedRounds = append(sr.fixedRounds, ph)
		}
	}
	var err error
	sr.rssMB, err = procPeakRSSMB(sv.srv.pid())
	return err
}

// servedRun collects a served workload's phases and server-side totals.
type servedRun struct {
	service, fixed, closed *phase   // every round's samples, pooled
	warmup, probe          *phase   // the fixed-count phases before the rounds
	hashed                 []*phase // the phases whose answers the seed alone fixes
	serviceRounds          []*phase // each round's unloaded sample
	closedRounds           []*phase // each round's closed loop
	fixedRounds            []*phase // each round's fixed-rate phase (traced runs only)
	conns                  int
	nice                   int           // ccsd's niceness, read back from /proc
	setups                 []float64     // seconds, one per set-up
	rssMB                  float64       // server peak RSS at the end of the rounds
	stats                  *serviceStats // ccsd's counters at the end of the run
}

func (sr *servedRun) all() []*phase {
	return []*phase{sr.warmup, sr.probe, sr.service, sr.fixed, sr.closed}
}

// closedRate is a closed loop's rate of answered requests.
func closedRate(ph *phase) float64 { return float64(len(ph.lats())) / ph.elapsed.Seconds() }

// perRound returns the median over rounds of f of each round's phase.
func perRound(phs []*phase, f func(*phase) float64) float64 {
	out := make([]float64, len(phs))
	for k, ph := range phs {
		out[k] = f(ph)
	}
	return median(out)
}

// A phase's wall-clock readings, corrected for steal: a time shrinks to
// the share of it the hypervisor did not steal, a rate grows by the
// inverse.
func keptTime(ph *phase, t float64) float64 { return t * (1 - ph.steal) }
func keptRate(ph *phase, r float64) float64 { return r / max(1-ph.steal, 0.05) }

// medianLat is a phase's median latency in milliseconds.
func medianLat(ph *phase) float64 { return median(ph.lats()) }

// finish reads ccsd's counters at the end of the run.
func (sr *servedRun) finish(s *server) error {
	st, err := queryStats(s.addr)
	sr.stats = st
	return err
}

// checkServed checks every reply of every phase, counts attempts and
// failures, and hashes the answers of the warm-up and the unloaded
// probe, which the seed alone fixes. Over those answers it
// also reports the saving against the noncooperative baseline on the
// same inputs, as a share of the baseline's total cost.
func checkServed(res *outcome, sr *servedRun, check func(sample) error,
	answer func(sample) (cost, noncoop float64, coal []coalIDs)) {
	var firstErr error
	for _, ph := range sr.all() {
		for _, s := range ph.samples {
			res.attempted++
			var err error
			if s.reply == nil {
				err = errors.New("no reply")
			} else {
				err = check(s)
			}
			if err != nil {
				res.failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("tag %d: %w", s.tag, err)
				}
			}
		}
	}
	if firstErr != nil {
		res.detail["first_failure"] = firstErr.Error()
	}
	h := sha256.New()
	var cost, noncoop float64
	for _, ph := range sr.hashed {
		ss := append([]sample(nil), ph.samples...)
		sort.SliceStable(ss, func(a, b int) bool { return ss[a].conn < ss[b].conn })
		for _, s := range ss {
			c, n, coal := answer(s)
			answerDigest(h, s.tag, c, coal)
			cost, noncoop = cost+c, noncoop+n
		}
	}
	res.answerHash = fmt.Sprintf("%x", h.Sum(nil))
	res.e2e["cost_saving_pct"] = 100 * (noncoop - cost) / noncoop
}

// servedMetrics derives the end-to-end metrics of a served workload and
// the load generator's own health.
func servedMetrics(res *outcome, sr *servedRun, shape solveShape, devices func(int) int) {
	closed := sr.closed.lats()
	res.e2e["latency_p50_ms"] = perRound(sr.serviceRounds, func(ph *phase) float64 { return keptTime(ph, medianLat(ph)) })
	res.e2e["setup_s"] = median(append([]float64(nil), sr.setups...))
	res.e2e["throughput_rps"] = perRound(sr.closedRounds, func(ph *phase) float64 { return keptRate(ph, closedRate(ph)) })
	res.e2e["devices_per_s"] = perRound(sr.closedRounds, func(ph *phase) float64 {
		devs := 0
		for _, s := range ph.samples {
			if s.reply != nil {
				devs += devices(s.tag)
			}
		}
		return keptRate(ph, float64(devs)/ph.elapsed.Seconds())
	})
	res.e2e["cpu_ms_per_op"] = perRound(sr.closedRounds, func(ph *phase) float64 {
		return 1000 * ph.serverCPU / float64(max(len(ph.lats()), 1))
	})
	res.e2e["rss_peak_mb"] = sr.rssMB

	rs := map[string][]float64{}
	for k := range sr.serviceRounds {
		sv, cl := sr.serviceRounds[k], sr.closedRounds[k]
		rs["service_p50_ms"] = append(rs["service_p50_ms"], medianLat(sv))
		rs["service_steal"] = append(rs["service_steal"], sv.steal)
		rs["closed_rps"] = append(rs["closed_rps"], closedRate(cl))
		rs["closed_steal"] = append(rs["closed_steal"], cl.steal)
	}
	res.layer["host.steal_pct"] = 100 * median(append(rs["service_steal"], rs["closed_steal"]...))
	res.detail["rounds"] = rs
	res.detail["setups_s"] = sr.setups
	res.detail["phase_replies"] = map[string]int{"probe": len(sr.probe.lats()), "service": len(sr.service.lats()), "closed": len(closed), "fixed": len(sr.fixed.lats())}
	res.stamp["ccsd_nice"] = sr.nice
	res.layer["loadgen.samples"] = float64(len(sr.service.lats()) + len(closed) + len(sr.fixed.lats()))
	st := sr.stats
	res.layer["ccsd.requests"] = float64(st.Requests)
	res.layer["ccsd.failures"] = float64(st.Failures)
	if t := st.Raw.Hits + st.Raw.Misses; t > 0 {
		res.layer["instcache.raw_hit_ratio"] = float64(st.Raw.Hits) / float64(t)
	}
	if t := st.Solutions.Hits + st.Solutions.Misses; t > 0 {
		res.layer["instcache.solution_hit_ratio"] = float64(st.Solutions.Hits) / float64(t)
	}
	res.layer["instcache.collapsed"] = float64(st.Solutions.Collapsed)
	res.layer["instcache.evictions"] = float64(st.Raw.Evictions + st.Solutions.Evictions)
	if len(sr.fixedRounds) == 0 {
		return
	}

	// The fixed-rate open loop, all rounds pooled and uncorrected: on a
	// shared machine its queueing multiplies every stall the host
	// imposes, so its readings are per-layer only and carry no bound.
	fixed := sr.fixed.lats()
	fixedP50 := median(append([]float64(nil), fixed...))
	p99, ok := percentile(fixed, 0.99)
	res.guard(ok, "fixed-rate phases have %d replies, too few for a p99 with %d beyond", len(fixed), minBeyond)
	res.layer["loadgen.fixed_p50_ms"] = fixedP50
	res.layer["loadgen.fixed_p99_ms"] = p99
	res.layer["ccsd.wait_ms"] = fixedP50 - median(sr.service.lats())
	// The generator fell behind when its sends lag, on average, by half
	// the gap between sends on one connection: it then offers less than
	// the fixed rate. Occasional late wake-ups are the host's timer
	// jitter and are part of every open-loop latency it measures.
	var lates []float64
	for _, s := range sr.fixed.samples {
		lates = append(lates, s.lateMs)
	}
	gapMs := 1000 * float64(sr.conns) / shape.rate
	res.guard(mean(lates) <= gapMs/2,
		"load generator fell behind (mean lateness %.2f ms, sends %.2f ms apart per connection): the run measured the generator, not the server",
		mean(lates), gapMs)
	late, _ := percentile(lates, 0.99)
	res.layer["loadgen.late_p99_ms"] = late
}
