package main

// The stateless solve workloads: solve-miss sends every instance once
// per server, so both cache tiers always miss; solve-repeat sends
// Zipf-popular repeats over a working set four times ccsd's default
// -cache-size, a share of them re-encoded so the fingerprint tier is
// reached as well as the raw-byte tier.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/gen"
)

const (
	// cacheSize is ccsd's default -cache-size; the repeat working set is
	// four times it.
	cacheSize      = 1024
	repeatItems    = 4 * cacheSize
	repeatZipfS    = 1.1
	repeatReencode = 0.15 // share of repeat requests sent re-encoded
)

// solveShape fixes each served workload's fixed-count phases and the
// traced run's fixed offered rate. README.md gives the basis of each.
type solveShape struct {
	warmup int     // requests per connection before anything is timed
	probe  int     // unloaded single-connection requests after the warm-up
	rate   float64 // requests/s offered in the fixed-rate phase
}

var (
	missShape   = solveShape{warmup: 60, probe: 120, rate: 130}
	repeatShape = solveShape{warmup: 1500, probe: 400, rate: 640}
)

// solveItem is one distinct instance a stateless workload sends.
type solveItem struct {
	class string // "ccsa" | "ccsga" | "mobile": the solver path it takes
	sched string // scheduler named in the request
	n     int    // devices
	body  []byte // compact instance JSON
	alt   []byte // the same instance re-encoded (solve-repeat only)
}

// genSolveItem generates item i of a stream, in the paper's mix: CCSA on
// 20–30-device fields, CCSGA on 100–400-device fields, as often as
// each other, and a quarter heterogeneous fleets with mobile chargers
// at the size the ext4-mobile experiment uses (20–30 devices, 6
// chargers, half of them mobile). The mobile quarter is solved by
// CCSA: see README.md for the CCSGA defect on mobile fleets.
func genSolveItem(seed int64, stream string, i int) (*solveItem, error) {
	r := streamRand(seed, stream, i)
	var p gen.Params
	it := &solveItem{}
	// Classes rotate over eight slots (three CCSA, three CCSGA, two
	// mobile), one slot every other index, so every run sends the same
	// mix and so does each connection (which takes every other item).
	// CCSA takes five of the eight slots, so the median request is a
	// CCSA solve rather than the boundary between the two solvers.
	// Field sizes follow the index, not the seed, spread evenly over
	// their range (the golden-ratio sequence): runs on different seeds
	// then send the same sizes in the same order, and differ in
	// geometry, demands and tariffs, not in how much work they ask for.
	u := math.Mod(float64(i)*0.6180339887498949, 1)
	switch k := i / 2 % 8; {
	case k < 3:
		it.class, it.sched = "ccsa", "CCSA"
		p = gen.Default()
		p.NumDevices, p.NumChargers = 20+int(u*11), 5
	case k >= 6:
		it.class, it.sched = "mobile", "CCSA"
		p = gen.HeterogeneousFleet(20+int(u*11), 6, 0.5)
	default:
		it.class, it.sched = "ccsga", "CCSGA"
		p = gen.Default()
		p.NumDevices, p.NumChargers = 100+int(u*301), 10
	}
	in, err := gen.Instance(r.Int63(), p)
	if err != nil {
		return nil, err
	}
	it.n = len(in.Devices)
	pretty, err := gen.EncodeInstance(in)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, pretty); err != nil {
		return nil, err
	}
	it.body = buf.Bytes()
	return it, nil
}

// reencode renders an instance body with other whitespace: a space after
// every separator. It decodes to the same instance.
func reencode(body []byte) []byte {
	alt := bytes.ReplaceAll(body, []byte(`,"`), []byte(`, "`))
	return bytes.ReplaceAll(alt, []byte(`":`), []byte(`": `))
}

// genItems generates items [len(items), n) of a stream on nproc workers.
func genItems(items []*solveItem, n int, seed int64, stream string) ([]*solveItem, error) {
	from := len(items)
	if n <= from {
		return items, nil
	}
	items = append(items, make([]*solveItem, n-from)...)
	err := parallel(n-from, func(k int) error {
		it, err := genSolveItem(seed, stream, from+k)
		items[from+k] = it
		return err
	})
	return items, err
}

// parallel runs f(0..n-1) on nproc goroutines and returns the first error.
func parallel(n int, f func(int) error) error {
	workers := runtime.NumCPU()
	var next int
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				stop := first != nil
				mu.Unlock()
				if k >= n || stop {
					return
				}
				if err := f(k); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// The canonical request envelope around an instance body. Requests share
// these bytes; each gets its own net.Buffers header list.
var (
	canonHead  = []byte(`{"instance":`)
	canonTails = map[string][]byte{
		"CCSA":  []byte(`,"scheduler":"CCSA"}` + "\n"),
		"CCSGA": []byte(`,"scheduler":"CCSGA"}` + "\n"),
	}
)

// altHead opens a re-encoded request: keys in the other order, and 24
// whitespace characters spelling k in binary so that no two re-encoded
// requests share bytes and the raw-byte tier never answers them.
func altHead(sched string, k int) []byte {
	b := []byte(`{"scheduler": "` + sched + `",`)
	for bit := 0; bit < 24; bit++ {
		if k>>bit&1 == 1 {
			b = append(b, '\t')
		} else {
			b = append(b, ' ')
		}
	}
	return append(b, `"instance": `...)
}

var altTail = []byte("}\n")

// missFeed sends pool items in order: connection c takes items c,
// c+conns, c+2·conns, … so no instance is ever sent twice.
type missFeed struct {
	pool  []*solveItem
	conns int
	cur   []int
}

func (f *missFeed) next(c int) (net.Buffers, int, bool) {
	i := c + f.cur[c]*f.conns
	if i >= len(f.pool) {
		return nil, 0, false
	}
	f.cur[c]++
	it := f.pool[i]
	return net.Buffers{canonHead, it.body, canonTails[it.sched]}, i, true
}

// repeatFeed sends Zipf-popular items; a seeded share of requests is
// re-encoded. Each connection has its own draw stream.
type repeatFeed struct {
	items []*solveItem
	draws [][]int32 // per connection: item index, negative = re-encoded (^index)
	cur   []int
}

func newRepeatFeed(seed int64, items []*solveItem, conns, perConn int) *repeatFeed {
	z := newZipf(len(items), repeatZipfS)
	f := &repeatFeed{items: items, cur: make([]int, conns)}
	for c := 0; c < conns; c++ {
		r := streamRand(seed, "repeat-draws", c)
		d := make([]int32, perConn)
		for k := range d {
			i := int32(z.draw(r))
			if r.Float64() < repeatReencode {
				i = ^i
			}
			d[k] = i
		}
		f.draws = append(f.draws, d)
	}
	return f
}

func (f *repeatFeed) next(c int) (net.Buffers, int, bool) {
	k := f.cur[c]
	if k >= len(f.draws[c]) {
		return nil, 0, false
	}
	f.cur[c]++
	i := f.draws[c][k]
	if i < 0 {
		it := f.items[^i]
		return net.Buffers{altHead(it.sched, c<<22|k), it.alt, altTail}, int(^i), true
	}
	it := f.items[i]
	return net.Buffers{canonHead, it.body, canonTails[it.sched]}, int(i), true
}

// solveExpect is the in-process replay's answer for one instance.
type solveExpect struct {
	cost, noncoop float64
	coal          []coalIDs
	nash          bool // CCSGA only: the replay verified a pure Nash equilibrium
	class         string
}

type coalIDs struct {
	Charger string   `json:"charger"`
	Devices []string `json:"devices"`
}

// solveItemAnswer runs the calls ccsd makes for a stateless solve —
// decode, model build, schedule, total cost — and the noncooperative
// baseline for the same input.
func solveItemAnswer(it *solveItem) (*solveExpect, error) {
	in, err := gen.DecodeInstance(it.body)
	if err != nil {
		return nil, err
	}
	cm, err := core.NewCostModel(in)
	if err != nil {
		return nil, err
	}
	e := &solveExpect{class: it.class}
	var plan *core.Schedule
	if it.sched == "CCSGA" {
		res, err := core.CCSGAScheduler{}.ScheduleWarm(cm, nil)
		if err != nil {
			return nil, err
		}
		plan, e.nash = res.Schedule, res.NashStable
	} else {
		if plan, err = (core.CCSAScheduler{}).Schedule(cm); err != nil {
			return nil, err
		}
	}
	if err := plan.Validate(len(in.Devices), len(in.Chargers)); err != nil {
		return nil, fmt.Errorf("replay schedule invalid: %w", err)
	}
	e.cost = cm.TotalCost(plan)
	e.noncoop = cm.TotalCost(core.Noncooperative(cm))
	e.coal = coalitionIDs(in, plan)
	return e, nil
}

func coalitionIDs(in *core.Instance, s *core.Schedule) []coalIDs {
	out := make([]coalIDs, len(s.Coalitions))
	for k, c := range s.Coalitions {
		out[k].Charger = in.Chargers[c.Charger].ID
		for _, i := range c.Members {
			out[k].Devices = append(out[k].Devices, in.Devices[i].ID)
		}
	}
	return out
}

// checkCoalitions compares served coalitions with the replay's: the same
// sessions in the same order, which also makes them a partition of the
// devices under valid charger IDs.
func checkCoalitions(got, want []coalIDs) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d coalitions, replay has %d", len(got), len(want))
	}
	for k := range got {
		if got[k].Charger != want[k].Charger || len(got[k].Devices) != len(want[k].Devices) {
			return fmt.Errorf("coalition %d differs from the replay", k)
		}
		for m := range got[k].Devices {
			if got[k].Devices[m] != want[k].Devices[m] {
				return fmt.Errorf("coalition %d member %d differs from the replay", k, m)
			}
		}
	}
	return nil
}

// checkSolveReply compares one served reply with the replay.
func checkSolveReply(rep []byte, e *solveExpect) error {
	var r struct {
		Cost       float64   `json:"cost"`
		Coalitions []coalIDs `json:"coalitions"`
		Err        string    `json:"error"`
	}
	if err := json.Unmarshal(rep, &r); err != nil {
		return err
	}
	if r.Err != "" {
		return errors.New(r.Err)
	}
	if math.Float64bits(r.Cost) != math.Float64bits(e.cost) {
		return fmt.Errorf("cost %v, replay %v", r.Cost, e.cost)
	}
	if e.class == "ccsga" && !e.nash {
		return errors.New("replay CCSGA solve not Nash-stable")
	}
	return checkCoalitions(r.Coalitions, e.coal)
}

// answerDigest folds one checked answer into the run's answer hash.
func answerDigest(h io.Writer, tag int, cost float64, coal []coalIDs) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(tag))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(cost))
	h.Write(b[:])
	for _, c := range coal {
		h.Write([]byte(c.Charger))
		for _, d := range c.Devices {
			h.Write([]byte{0})
			h.Write([]byte(d))
		}
		h.Write([]byte{1})
	}
}

func runSolve(o *options, repeat bool) (*outcome, error) {
	conns := loadConns()
	shape, stream := missShape, "miss"
	if repeat {
		shape, stream = repeatShape, "repeat"
	}
	var items []*solveItem
	var err error
	sv := &served{shape: shape}
	if repeat {
		if items, err = genItems(nil, repeatItems, o.seed, stream); err != nil {
			return nil, err
		}
		for _, it := range items {
			it.alt = reencode(it.body)
		}
		sv.feed = newRepeatFeed(o.seed, items, conns, 200000)
	} else {
		// Every request is a distinct instance: the pool grows ahead of
		// each phase, between timed phases, by what it may consume.
		mf := &missFeed{conns: conns, cur: make([]int, conns)}
		sv.feed = mf
		sv.prepare = func(perConn int) error {
			need := 0
			for c := range mf.cur {
				need = max(need, c+(mf.cur[c]+perConn)*conns)
			}
			items, err = genItems(items, need, o.seed, stream)
			mf.pool = items
			return err
		}
	}

	sr := &servedRun{}
	defer func() { closeAll(sv.cs); sv.srv.stop() }()
	if sr.setups, err = sv.start(o.ccsd, protoJSON); err != nil {
		return nil, err
	}
	if err := runRounds(sv, o.seconds, o.trace, sr); err != nil {
		return nil, err
	}
	if err := sr.finish(sv.srv); err != nil {
		return nil, err
	}

	// Replay every instance any phase sent, then check every reply.
	used := map[int]bool{}
	for _, ph := range sr.all() {
		for _, s := range ph.samples {
			used[s.tag] = true
		}
	}
	tags := make([]int, 0, len(used))
	for t := range used {
		tags = append(tags, t)
	}
	sort.Ints(tags)
	answers := make([]*solveExpect, len(tags))
	if err := parallel(len(tags), func(k int) error {
		e, err := solveItemAnswer(items[tags[k]])
		answers[k] = e
		return err
	}); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	exp := make(map[int]*solveExpect, len(tags))
	for k, t := range tags {
		exp[t] = answers[k]
	}

	res := newOutcome()
	devices := func(tag int) int { return items[tag].n }
	checkServed(res, sr, func(s sample) error { return checkSolveReply(s.reply, exp[s.tag]) },
		func(s sample) (float64, float64, []coalIDs) {
			e := exp[s.tag]
			return e.cost, e.noncoop, e.coal
		})
	servedMetrics(res, sr, shape, devices)
	st := sr.stats
	if repeat {
		res.guard(st.Raw.Hits > 0 && st.Solutions.Hits > 0,
			"solve-repeat must hit both cache tiers (raw %d, solutions %d hits)", st.Raw.Hits, st.Solutions.Hits)
	} else {
		res.guard(st.Raw.Hits == 0 && st.Solutions.Hits == 0,
			"solve-miss must see no cache hits (raw %d, solutions %d hits)", st.Raw.Hits, st.Solutions.Hits)
	}
	res.detail["items_replayed"] = len(tags)
	if o.trace {
		if err := traceSolve(res, sr, items); err != nil {
			return nil, err
		}
	}
	return res, nil
}
