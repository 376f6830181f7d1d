package main

// The session-churn workload: a handful of sessions registered during
// set-up, then binary TDelta frames. Most frames carry one leave, join
// or demand op (the incremental repair path); a minority carry a
// visit-sized batch, which dirties most session slots and forces the
// full warm fallback, or a tariff swap.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/instcache"
	"repro/internal/pricing"
	"repro/internal/wire"
)

// sessionSpec sizes one session.
type sessionSpec struct {
	devices, chargers int
}

// sessionSpecs are the sessions every run registers; session k is driven
// over connection k mod the connection count. The sizes are fixed so that runs on different
// seeds differ in geometry, demands and tariffs, not in scale. All are
// stationary fleets: see README.md for why no mobile session is driven.
var sessionSpecs = []sessionSpec{
	{devices: 4096, chargers: 16},
	{devices: 2048, chargers: 12},
	{devices: 1024, chargers: 12},
	{devices: 256, chargers: 8},
}

var sessionShape = solveShape{warmup: 300, probe: 300, rate: 300}

const (
	framesPerConn = 60000
	visitOps      = 32 // ops in a visit-sized batch
	// Every mixPeriod frames of a session carry one visit batch and one
	// tariff swap, at fixed places, so every run sends the same mix in
	// the same rhythm; the rest are single ops.
	mixPeriod = 20
)

// deltaOp is one decoded delta op, as ccsd's session code applies it.
type deltaOp struct {
	code   byte // 1 join, 2 leave, 3 demand, 4 tariff
	id     string
	dev    core.Device
	demand float64
	tariff gen.TariffDTO
}

// sessionSrc is one session's registered instance and delta stream.
type sessionSrc struct {
	spec     sessionSpec
	inst     []byte // registered instance JSON
	pool     []core.Device
	chargers []core.Charger
	tariffs  []gen.TariffDTO // the chargers' registered tariffs
	ops      [][]deltaOp     // per frame
	frames   [][]byte        // rendered TDelta frames, once the ID is known
	id       uint64
	sent     int // frames sent so far
}

// genSession builds session k's instance and join pool: a quarter more
// devices than it registers, so joins have devices to bring back.
func genSession(seed int64, k int) (*sessionSrc, error) {
	spec := sessionSpecs[k]
	r := streamRand(seed, "session", k)
	extra := spec.devices / 4
	// Constant-density clustered fields with a planned charger grid, so
	// coalitions stay local and a one-device delta dirties one charger's
	// slots, as in a real deployment.
	p := gen.LargeField(spec.devices+extra, spec.chargers)
	// Many small hotspots rather than LargeField's few, so a session's
	// cost structure averages over its hotspots and differs little from
	// seed to seed.
	p.Clusters = spec.devices / 16
	in, err := gen.Instance(r.Int63(), p)
	if err != nil {
		return nil, err
	}
	// Mixed tariffs, as a real charger fleet has: a third volume-discount
	// power laws, a third linear, a third tiered. Rates and session fees
	// spread evenly over their ranges (golden-ratio sequences from seeded
	// starts), so the sessions' prices differ from seed to seed in which
	// charger charges what, not in their spread: the cooperative saving
	// then varies little between seeds.
	rateAt, feeAt := r.Float64(), r.Float64()
	even := func(start float64, j int) float64 { return math.Mod(start+float64(j)*0.6180339887498949, 1) }
	for j := range in.Chargers {
		rate := 0.08 + 0.12*even(rateAt, j)
		in.Chargers[j].Fee = p.FeeMin + (p.FeeMax-p.FeeMin)*even(feeAt, j)
		switch j % 3 {
		case 0:
			e0 := p.DemandMin
			in.Chargers[j].Tariff = pricing.PowerLaw{Coeff: rate * e0 / math.Pow(e0, p.TariffExponent), Exponent: p.TariffExponent}
		case 1:
			in.Chargers[j].Tariff = pricing.Linear{Rate: rate}
		case 2:
			in.Chargers[j].Tariff = pricing.MustTiered([]pricing.Tier{
				{UpTo: 300, Rate: rate}, {UpTo: math.Inf(1), Rate: 0.8 * rate}})
		}
	}
	s := &sessionSrc{spec: spec, pool: in.Devices, chargers: in.Chargers}
	for _, c := range in.Chargers {
		dto, err := gen.EncodeTariff(c.Tariff)
		if err != nil {
			return nil, err
		}
		s.tariffs = append(s.tariffs, dto)
	}
	reg := *in
	reg.Devices = in.Devices[:spec.devices]
	pretty, err := gen.EncodeInstance(&reg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, pretty); err != nil {
		return nil, err
	}
	s.inst = buf.Bytes()
	return s, nil
}

// churnGen generates one session's delta frames.
type churnGen struct {
	r       *rand.Rand
	src     *sessionSrc
	present []int           // pool indices in the session
	absent  []int           // pool indices free to join
	tariffs []gen.TariffDTO // each charger's current tariff
	frames  int             // frames generated so far
}

func newChurnGen(seed int64, k int, src *sessionSrc) *churnGen {
	g := &churnGen{r: streamRand(seed, "churn", k), src: src, tariffs: append([]gen.TariffDTO(nil), src.tariffs...)}
	for i := range src.pool {
		if i < src.spec.devices {
			g.present = append(g.present, i)
		} else {
			g.absent = append(g.absent, i)
		}
	}
	return g
}

func (g *churnGen) pick(from *[]int) int {
	k := g.r.Intn(len(*from))
	i := (*from)[k]
	(*from)[k] = (*from)[len(*from)-1]
	*from = (*from)[:len(*from)-1]
	return i
}

func (g *churnGen) single(kind int) deltaOp {
	switch {
	case kind == 0 && len(g.absent) > 0:
		i := g.pick(&g.absent)
		g.present = append(g.present, i)
		d := g.src.pool[i]
		d.Demand = 150 + 300*g.r.Float64()
		return deltaOp{code: 1, id: d.ID, dev: d}
	case kind == 1 && len(g.present) > g.src.spec.devices/2:
		i := g.pick(&g.present)
		g.absent = append(g.absent, i)
		return deltaOp{code: 2, id: g.src.pool[i].ID}
	default:
		i := g.present[g.r.Intn(len(g.present))]
		return deltaOp{code: 3, id: g.src.pool[i].ID, demand: 150 + 300*g.r.Float64()}
	}
}

// frame draws the next frame's ops.
func (g *churnGen) frame() []deltaOp {
	slot := g.frames % mixPeriod
	g.frames++
	switch {
	case slot == 0:
		// A visit: a batch of demand updates with a few arrivals and
		// departures, enough to dirty most session slots.
		ops := make([]deltaOp, 0, visitOps)
		for len(ops) < visitOps {
			kind := 2
			if len(ops)%8 == 0 {
				kind = 0
			} else if len(ops)%8 == 1 {
				kind = 1
			}
			ops = append(ops, g.single(kind))
		}
		return ops
	case slot == mixPeriod/2:
		// A tariff swap: two chargers exchange tariffs, so the fleet's
		// prices keep their spread however many swaps a run sends.
		n := len(g.tariffs)
		a := g.r.Intn(n)
		b := (a + 1 + g.r.Intn(n-1)) % n
		g.tariffs[a], g.tariffs[b] = g.tariffs[b], g.tariffs[a]
		return []deltaOp{
			{code: 4, id: g.src.chargers[a].ID, tariff: g.tariffs[a]},
			{code: 4, id: g.src.chargers[b].ID, tariff: g.tariffs[b]},
		}
	default:
		return []deltaOp{g.single(g.r.Intn(3))}
	}
}

// appendOps encodes ops in ccsd's TDelta op format.
func appendOps(b []byte, ops []deltaOp) []byte {
	b = wire.AppendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = append(b, op.code)
		b = wire.AppendString(b, op.id)
		switch op.code {
		case 1:
			b = wire.AppendFloat64(b, op.dev.Pos.X)
			b = wire.AppendFloat64(b, op.dev.Pos.Y)
			b = wire.AppendFloat64(b, op.dev.Demand)
			b = wire.AppendFloat64(b, op.dev.MoveRate)
		case 3:
			b = wire.AppendFloat64(b, op.demand)
		case 4:
			switch op.tariff.Kind {
			case "linear":
				b = append(b, 0)
				b = wire.AppendFloat64(b, op.tariff.Rate)
			case "powerlaw":
				b = append(b, 1)
				b = wire.AppendFloat64(b, op.tariff.Coeff)
				b = wire.AppendFloat64(b, op.tariff.Exponent)
			default:
				b = append(b, 2)
				b = wire.AppendUvarint(b, uint64(len(op.tariff.Tiers)))
				for _, t := range op.tariff.Tiers {
					upTo := math.Inf(1)
					if t.UpTo != "inf" {
						upTo, _ = strconv.ParseFloat(t.UpTo, 64)
					}
					b = wire.AppendFloat64(b, upTo)
					b = wire.AppendFloat64(b, t.Rate)
				}
			}
		}
	}
	return b
}

// decodeOps decodes a TDelta payload after the session ID, as ccsd does.
func decodeOps(d *wire.Decoder) ([]deltaOp, error) {
	n := d.Uvarint()
	ops := make([]deltaOp, 0, n)
	for k := uint64(0); k < n && d.Err() == nil; k++ {
		op := deltaOp{code: d.Byte(), id: d.String()}
		switch op.code {
		case 1:
			op.dev = core.Device{ID: op.id, Pos: geom.Pt(d.Float64(), d.Float64()), Demand: d.Float64(), MoveRate: d.Float64()}
		case 2:
		case 3:
			op.demand = d.Float64()
		case 4:
			switch kind := d.Byte(); kind {
			case 0:
				op.tariff = gen.TariffDTO{Kind: "linear", Rate: d.Float64()}
			case 1:
				op.tariff = gen.TariffDTO{Kind: "powerlaw", Coeff: d.Float64(), Exponent: d.Float64()}
			default:
				op.tariff = gen.TariffDTO{Kind: "tiered"}
				for t, nt := uint64(0), d.Uvarint(); t < nt && d.Err() == nil; t++ {
					upTo, rate := d.Float64(), d.Float64()
					bound := "inf"
					if !math.IsInf(upTo, 1) {
						bound = strconv.FormatFloat(upTo, 'g', -1, 64)
					}
					op.tariff.Tiers = append(op.tariff.Tiers, gen.TierDTO{UpTo: bound, Rate: rate})
				}
			}
		default:
			return nil, fmt.Errorf("unknown opcode %d", op.code)
		}
		ops = append(ops, op)
	}
	return ops, d.Done()
}

func frameBytes(t wire.Type, payload []byte) []byte {
	b := []byte{wire.Magic, wire.Version, byte(t)}
	b = wire.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func registerFrame(src *sessionSrc) []byte {
	return frameBytes(wire.TRegister, append(wire.AppendString(nil, "CCSGA"), src.inst...))
}

// sessionID reads the session ID from a TSession reply to a register.
func sessionID(rep []byte) (uint64, error) {
	switch {
	case len(rep) == 0:
		return 0, errors.New("empty reply")
	case wire.Type(rep[0]) == wire.TError:
		return 0, fmt.Errorf("ccsd error: %s", rep[1:])
	case wire.Type(rep[0]) != wire.TSession:
		return 0, fmt.Errorf("unexpected reply frame 0x%02X", rep[0])
	}
	d := wire.NewDecoder(rep[1:])
	id := d.Uvarint()
	return id, d.Err()
}

// frameTag tags a reply with its session k and frame index i; untag
// splits the tag.
func frameTag(k, i int) int { return k<<24 | i }

func untag(tag int) (k, i int) { return tag >> 24, tag & (1<<24 - 1) }

// sessFeed hands each connection the next frame of one of its sessions.
type sessFeed struct {
	srcs  []*sessionSrc
	order [][]int // per connection: session of each request
	cur   []int
}

func (f *sessFeed) next(c int) (net.Buffers, int, bool) {
	k := f.cur[c]
	if k >= len(f.order[c]) {
		return nil, 0, false
	}
	s := f.order[c][k]
	src := f.srcs[s]
	if src.sent >= len(src.frames) {
		return nil, 0, false
	}
	f.cur[c]++
	i := src.sent
	src.sent++
	return net.Buffers{src.frames[i]}, frameTag(s, i), true
}

func runSession(o *options) (*outcome, error) {
	conns := loadConns()
	srcs := make([]*sessionSrc, len(sessionSpecs))
	if err := parallel(len(srcs), func(k int) error {
		s, err := genSession(o.seed, k)
		srcs[k] = s
		return err
	}); err != nil {
		return nil, err
	}
	// Each session's ops, and each connection's session order.
	f := &sessFeed{srcs: srcs, cur: make([]int, conns)}
	gens := make([]*churnGen, len(srcs))
	for k, src := range srcs {
		gens[k] = newChurnGen(o.seed, k, src)
	}
	for c := 0; c < conns; c++ {
		var own []int
		for k := c; k < len(srcs); k += conns {
			own = append(own, k)
		}
		// Connection c drives sessions c, c+conns, … in turn.
		order := make([]int, framesPerConn)
		for i := range order {
			s := own[i%len(own)]
			order[i] = s
			srcs[s].ops = append(srcs[s].ops, gens[s].frame())
		}
		f.order = append(f.order, order)
	}

	sr := &servedRun{}
	sv := &served{shape: sessionShape, feed: f}
	defer func() { closeAll(sv.cs); sv.srv.stop() }()
	launched, err := sv.start(o.ccsd, protoBinary)
	if err != nil {
		return nil, err
	}
	// Register every session three times (closing the first two rounds)
	// and keep the last registration.
	var regs []float64
	regReplies := make([][]byte, len(srcs))
	for round := 0; round < 3; round++ {
		t0, st := time.Now(), startSteal()
		for k, src := range srcs {
			rep, err := sv.cs[0].roundTrip(net.Buffers{registerFrame(src)})
			if err != nil {
				return nil, err
			}
			if src.id, err = sessionID(rep); err != nil {
				return nil, fmt.Errorf("register session %d: %w", k, err)
			}
			regReplies[k] = rep
		}
		regs = append(regs, time.Since(t0).Seconds()*(1-st.share()))
		if round < 2 {
			for _, src := range srcs {
				close := frameBytes(wire.TClose, wire.AppendUvarint(nil, src.id))
				if _, err := sv.cs[0].roundTrip(net.Buffers{close}); err != nil {
					return nil, err
				}
			}
		}
	}
	sr.setups = []float64{median(launched) + median(regs)}
	for _, src := range srcs {
		src.frames = make([][]byte, len(src.ops))
		for i, ops := range src.ops {
			src.frames[i] = frameBytes(wire.TDelta, appendOps(wire.AppendUvarint(nil, src.id), ops))
		}
	}
	if err := runRounds(sv, o.seconds, o.trace, sr); err != nil {
		return nil, err
	}
	if err := sr.finish(sv.srv); err != nil {
		return nil, err
	}

	// Replay every session from its registration through every frame it
	// was sent, checking each reply against the replay's state as it
	// goes; only the hashed answers are kept.
	replies := map[int][]byte{}
	for _, ph := range sr.all() {
		for _, s := range ph.samples {
			if s.reply != nil {
				replies[s.tag] = s.reply
			}
		}
	}
	hashed := map[int]bool{}
	for _, ph := range sr.hashed {
		for _, s := range ph.samples {
			hashed[s.tag] = true
		}
	}
	regErrs := make([]error, len(srcs))
	errs := make([]map[int]error, len(srcs))
	answers := make([]map[int]*solveExpect, len(srcs))
	if err := parallel(len(srcs), func(k int) error {
		rp, err := newSessReplay(nil, srcs[k])
		if err != nil {
			return err
		}
		regErrs[k] = rp.check(regReplies[k])
		errs[k], answers[k] = map[int]error{}, map[int]*solveExpect{}
		for i := 0; i < srcs[k].sent; i++ {
			if err := rp.delta(srcs[k].frames[i]); err != nil {
				return fmt.Errorf("session %d frame %d: %w", k, i, err)
			}
			tag := frameTag(k, i)
			if rep, ok := replies[tag]; ok {
				errs[k][i] = rp.check(rep)
			}
			if hashed[tag] {
				answers[k][i] = rp.answer()
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	res := newOutcome()
	for _, err := range regErrs {
		res.attempted++
		if err != nil {
			res.failed++
			res.detail["register_failure"] = err.Error()
		}
	}
	checkServed(res, sr, func(s sample) error {
		k, i := untag(s.tag)
		return errs[k][i]
	}, func(s sample) (float64, float64, []coalIDs) {
		k, i := untag(s.tag)
		a := answers[k][i]
		return a.cost, a.noncoop, a.coal
	})
	devices := func(tag int) int {
		k, _ := untag(tag)
		return srcs[k].spec.devices
	}
	servedMetrics(res, sr, sessionShape, devices)
	ss := sr.stats.Sessions
	res.guard(ss != nil && ss.RepairSolves > 0 && ss.RepairFallbacks > 0,
		"session-churn must see both repaired and fallback solves")
	if ss != nil {
		res.layer["ccsd.delta_solves"] = float64(ss.DeltaSolves)
		res.layer["ccsd.repair_solves"] = float64(ss.RepairSolves)
		res.layer["ccsd.repair_fallbacks"] = float64(ss.RepairFallbacks)
	}
	sent := map[string]int{}
	for _, src := range srcs {
		sent[strconv.Itoa(src.spec.devices)] = src.sent
	}
	res.detail["frames_sent"] = sent
	res.detail["registration_s"] = regs
	res.detail["launch_s"] = launched
	if o.trace {
		if err := traceSession(res, sr, srcs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check compares a served TSession or TSchedule reply with the replay's
// current solve — cost bit for bit, passes, switches, the Nash and
// repaired flags, and the coalitions by agent ID — reading the payload
// in place. Every answer must be a verified Nash equilibrium.
func (rp *sessReplay) check(rep []byte) error {
	if len(rep) == 0 {
		return errors.New("empty reply")
	}
	typ, payload := wire.Type(rep[0]), rep[1:]
	if typ == wire.TError {
		return fmt.Errorf("ccsd error: %s", payload)
	}
	d := wire.NewDecoder(payload)
	if typ == wire.TSession {
		d.Uvarint()
	} else if typ != wire.TSchedule {
		return fmt.Errorf("unexpected reply frame 0x%02X", byte(typ))
	}
	res, in := rp.res, rp.cm.Instance()
	if cost := d.Float64(); math.Float64bits(cost) != math.Float64bits(rp.cm.TotalCost(res.Schedule)) {
		return fmt.Errorf("cost %v, replay %v", cost, rp.cm.TotalCost(res.Schedule))
	}
	if p, sw := d.Uvarint(), d.Uvarint(); int(p) != res.Passes || int(sw) != res.Switches {
		return fmt.Errorf("passes/switches %d/%d, replay %d/%d", p, sw, res.Passes, res.Switches)
	}
	if flags := d.Byte(); flags&1 != 0 != res.NashStable || flags&2 != 0 != res.Repaired {
		return fmt.Errorf("flags %02b, replay nash %v repaired %v", flags, res.NashStable, res.Repaired)
	}
	if !res.NashStable {
		return errors.New("session schedule not Nash-stable")
	}
	if n := d.Uvarint(); int(n) != len(res.Schedule.Coalitions) {
		return fmt.Errorf("%d coalitions, replay has %d", n, len(res.Schedule.Coalitions))
	}
	for k, c := range res.Schedule.Coalitions {
		if string(d.Bytes()) != in.Chargers[c.Charger].ID || int(d.Uvarint()) != len(c.Members) {
			return fmt.Errorf("coalition %d differs from the replay", k)
		}
		for m, i := range c.Members {
			if string(d.Bytes()) != in.Devices[i].ID {
				return fmt.Errorf("coalition %d member %d differs from the replay", k, m)
			}
		}
	}
	return d.Done()
}

// sessReplay mirrors one ccsd session in-process: the registered cost
// model, its warm-start carrier and repair state, and the device index.
type sessReplay struct {
	tr       *tracer
	src      *sessionSrc
	cm       *core.CostModel
	ws       *core.WarmStart
	rs       *core.RepairState
	devIndex map[string]int
	chIndex  map[string]int
	res      *core.CCSGAResult
	rd       *wire.Reader
	buf      *bytes.Reader
	stats    sessStats
}

// sessStats counts what a replay's solves did.
type sessStats struct {
	repaired, fallbacks, frontier int
	reasons                       map[string]int
}

// newSessReplay registers src as ccsd does: decode, fingerprint, build,
// then the first (full) solve through a fresh repair state.
func newSessReplay(tr *tracer, src *sessionSrc) (*sessReplay, error) {
	rp := &sessReplay{tr: tr, src: src, buf: bytes.NewReader(nil), stats: sessStats{reasons: map[string]int{}}}
	rp.rd = wire.NewReader(rp.buf, 1<<26)
	id := tr.begin("gen.decode")
	in, err := gen.DecodeInstance(src.inst)
	tr.end(id, "")
	if err != nil {
		return nil, err
	}
	id = tr.begin("instcache.key")
	_, err = instcache.KeyFor(in, "CCSGA", "")
	tr.end(id, "")
	if err != nil {
		return nil, err
	}
	id = tr.begin("ccsd.session_index")
	rp.devIndex = make(map[string]int, len(in.Devices))
	for i, d := range in.Devices {
		rp.devIndex[d.ID] = i
	}
	rp.chIndex = make(map[string]int, len(in.Chargers))
	for j, c := range in.Chargers {
		rp.chIndex[c.ID] = j
	}
	tr.end(id, "")
	id = tr.begin("core.build")
	rp.cm, err = core.NewCostModel(in)
	tr.end(id, "")
	if err != nil {
		return nil, err
	}
	rp.ws, rp.rs = core.NewWarmStart(), core.NewRepairState()
	id = tr.begin("core.solve.ccsga")
	rp.res, err = core.CCSGAScheduler{}.ScheduleRepair(rp.cm, rp.ws, rp.rs)
	tr.end(id, "")
	return rp, err
}

// delta applies one TDelta frame and re-solves, as ccsd's session path
// does.
func (rp *sessReplay) delta(frame []byte) error {
	tr := rp.tr
	id := tr.begin("wire.frame")
	rp.buf.Reset(frame)
	_, payload, err := rp.rd.ReadFrame()
	var ops []deltaOp
	if err == nil {
		d := wire.NewDecoder(payload)
		d.Uvarint()
		ops, err = decodeOps(d)
	}
	tr.end(id, "")
	if err != nil {
		return err
	}
	for _, op := range ops {
		if err := rp.apply(op); err != nil {
			return err
		}
	}
	id = tr.begin("core.repair")
	rp.res, err = core.CCSGAScheduler{}.ScheduleRepair(rp.cm, rp.ws, rp.rs)
	name := "core.repair"
	if err == nil && !rp.res.Repaired {
		name = "core.fallback"
	}
	tr.end(id, name)
	if err != nil {
		return err
	}
	if rp.res.Repaired {
		rp.stats.repaired++
		rp.stats.frontier += rp.res.FrontierDevices
	} else if r := rp.res.FallbackReason; r != "" {
		rp.stats.fallbacks++
		rp.stats.reasons[fallbackKind(r)]++
	}
	return nil
}

func fallbackKind(reason string) string {
	if strings.Contains(reason, "frontier") {
		return "frontier"
	}
	return "other"
}

// answer renders the replay's current solve for the answer hash and
// the saving against the noncooperative baseline.
func (rp *sessReplay) answer() *solveExpect {
	cm, plan := rp.cm, rp.res.Schedule
	return &solveExpect{
		cost:    cm.TotalCost(plan),
		noncoop: cm.TotalCost(core.Noncooperative(cm)),
		coal:    coalitionIDs(cm.Instance(), plan),
		nash:    rp.res.NashStable,
		class:   "ccsga",
	}
}

// apply performs one op the way ccsd's session code does: the cost
// model patch, then the session's device-index upkeep.
func (rp *sessReplay) apply(op deltaOp) error {
	tr := rp.tr
	switch op.code {
	case 1:
		id := tr.begin("core.patch.add")
		err := rp.cm.AddDevice(op.dev)
		tr.end(id, "")
		if err != nil {
			return err
		}
		id = tr.begin("ccsd.session_index")
		rp.devIndex[op.id] = rp.cm.NumDevices() - 1
		tr.end(id, "")
	case 2:
		i, ok := rp.devIndex[op.id]
		if !ok {
			return fmt.Errorf("leave: unknown device %q", op.id)
		}
		id := tr.begin("core.patch.remove")
		err := rp.cm.RemoveDevice(i)
		tr.end(id, "")
		if err != nil {
			return err
		}
		id = tr.begin("ccsd.session_index")
		delete(rp.devIndex, op.id)
		devs := rp.cm.Instance().Devices
		for j := i; j < len(devs); j++ {
			rp.devIndex[devs[j].ID] = j
		}
		tr.end(id, "")
	case 3:
		i, ok := rp.devIndex[op.id]
		if !ok {
			return fmt.Errorf("demand: unknown device %q", op.id)
		}
		id := tr.begin("core.patch.update")
		dev := rp.cm.Instance().Devices[i]
		dev.Demand = op.demand
		err := rp.cm.UpdateDevice(i, dev)
		tr.end(id, "")
		return err
	case 4:
		j, ok := rp.chIndex[op.id]
		if !ok {
			return fmt.Errorf("tariff: unknown charger %q", op.id)
		}
		id := tr.begin("core.patch.tariff")
		tf, err := gen.DecodeTariff(op.tariff)
		if err == nil {
			err = rp.cm.SetTariff(j, tf)
		}
		tr.end(id, "")
		return err
	}
	return nil
}

// traceSession replays the registrations, the warm-up's frames and the
// unloaded probe's frames — each session's first frames, in order
// — untraced and traced (twice each, alternating, after an untimed
// pass), and reports the session workload's per-layer metrics.
func traceSession(res *outcome, sr *servedRun, srcs []*sessionSrc) error {
	type req struct {
		session, frame int
		servedMs       float64
		unloaded       bool // from the unloaded probe
	}
	var reqs []req
	drove := map[int]bool{}
	for _, ph := range []*phase{sr.warmup, sr.probe} {
		for _, s := range ph.samples {
			k, i := untag(s.tag)
			reqs = append(reqs, req{k, i, s.latMs, ph != sr.warmup})
			drove[k] = true
		}
	}
	var sessions []int
	for k := range drove {
		sessions = append(sessions, k)
	}
	sort.Ints(sessions)
	pass := func(tr *tracer) (time.Duration, map[int]*sessReplay, error) {
		start := time.Now()
		rps := map[int]*sessReplay{}
		for _, k := range sessions {
			rp, err := newSessReplay(tr, srcs[k])
			if err != nil {
				return 0, nil, err
			}
			rps[k] = rp
		}
		for n, r := range reqs {
			if tr != nil {
				tr.req = n + 1 // request 0 holds the registrations
			}
			if err := rps[r.session].delta(srcs[r.session].frames[r.frame]); err != nil {
				return 0, nil, err
			}
		}
		return time.Since(start), rps, nil
	}
	var plain, traced, wall time.Duration
	var tr *tracer
	var rps map[int]*sessReplay
	if _, _, err := pass(nil); err != nil {
		return err
	}
	for rep := 0; rep < 2; rep++ {
		d, _, err := pass(nil)
		if err != nil {
			return err
		}
		plain += d
		tr = newTracer()
		if wall, rps, err = pass(tr); err != nil {
			return err
		}
		traced += wall
	}
	byName, covered, perReq := tr.summary()
	L := res.layer
	us := func(name string) float64 {
		st := byName[name]
		if st == nil {
			return 0
		}
		return float64(st.self) / float64(time.Microsecond) / float64(st.count)
	}
	for _, n := range []string{"add", "remove", "update", "tariff"} {
		L["core.patch_us."+n] = us("core.patch." + n)
	}
	L["core.repair_us"] = us("core.repair")
	L["core.fallback_us"] = us("core.fallback")
	L["wire.frame_us"] = us("wire.frame")
	L["gen.decode_us"] = us("gen.decode")
	L["instcache.key_us"] = us("instcache.key")
	L["core.build_us"] = us("core.build")
	L["core.solve_us.ccsga"] = us("core.solve.ccsga")
	// The index upkeep is ccsd's own session code, reported per delta.
	if st := byName["ccsd.session_index"]; st != nil {
		L["ccsd.session_index_us"] = float64(st.self) / float64(time.Microsecond) / float64(len(reqs))
	}
	var agg sessStats
	agg.reasons = map[string]int{}
	for _, rp := range rps {
		agg.repaired += rp.stats.repaired
		agg.fallbacks += rp.stats.fallbacks
		agg.frontier += rp.stats.frontier
		for k, v := range rp.stats.reasons {
			agg.reasons[k] += v
		}
	}
	L["core.repair_ratio"] = float64(agg.repaired) / float64(len(reqs))
	if agg.repaired > 0 {
		L["core.frontier_devices"] = float64(agg.frontier) / float64(agg.repaired)
	}
	L["core.fallbacks"] = float64(agg.fallbacks)
	for _, k := range []string{"frontier", "other"} {
		L["core.fallbacks."+k] = float64(agg.reasons[k])
	}
	L["gen.request_kb"] = 0
	for _, r := range reqs {
		L["gen.request_kb"] += float64(len(srcs[r.session].frames[r.frame])) / 1024 / float64(len(reqs))
	}
	var self []float64
	for n, r := range reqs {
		if r.unloaded {
			self = append(self, r.servedMs-float64(perReq[n+1])/float64(time.Millisecond))
		}
	}
	L["ccsd.self_ms"] = median(self)
	replayCoverage(res, wall, covered, traced, plain)
	return nil
}
