package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/coalition"
)

// CCSGAOptions tunes the coalition-formation game algorithm.
type CCSGAOptions struct {
	// Scheme is the intragroup cost-sharing scheme the devices play
	// under. Default PDS (whose cross-monotonic shares make the selfish
	// dynamics converge).
	Scheme SharingScheme
	// Rule is the deviation rule. Default coalition.Selfish (the paper's
	// device-utility switch operation).
	Rule coalition.Rule
	// Seed randomizes the per-pass visiting order when nonzero; zero
	// keeps deterministic round-robin.
	Seed int64
	// MaxPasses caps full sweeps; zero uses the engine default.
	MaxPasses int
	// Epsilon is the minimum strict improvement; zero uses the engine
	// default.
	Epsilon float64
}

// CCSGAResult carries the schedule plus game diagnostics.
type CCSGAResult struct {
	Schedule *Schedule
	// Switches is the number of accepted switch operations.
	Switches int
	// Passes is the number of full sweeps over the devices.
	Passes int
	// Converged reports whether a full pass saw no switch.
	Converged bool
	// NashStable reports whether the final assignment was verified to be
	// a pure Nash equilibrium (no device can lower its share).
	NashStable bool
	// Repaired reports whether the result came from the incremental
	// dirty-set repair path (ScheduleRepair) rather than a full solve.
	Repaired bool
	// FallbackReason is non-empty when a primed repair state could not
	// repair incrementally and fell back to a full warm solve (frontier
	// too large, session-slot layout change, ESS tariff swap, …).
	FallbackReason string
	// FrontierDevices counts the devices the repair fully re-evaluated
	// (members of dirty slots); zero for full solves.
	FrontierDevices int
}

// CCSGA runs the paper's game-theoretic algorithm for large instances:
// each device's strategy is the charging session it joins (one session
// slot per charger, or several when session capacities force splitting);
// the devices in a session form one coalition and split its cost with the
// sharing scheme; switch dynamics run until a pure Nash equilibrium. The
// initial assignment is the noncooperative one (every device at its
// standalone charger), packed greedily when capacities bind.
func CCSGA(cm *CostModel, opts CCSGAOptions) (*CCSGAResult, error) {
	res, _, _, err := ccsgaSolve(cm, opts, nil, nil)
	return res, err
}

// ccsgaSolve is the one full CCSGA solve: seed, switch dynamics to a
// verified equilibrium, record. The dynamics start from init when it is
// non-nil (validated: one in-range slot per device, capacities and
// travel budgets respected), else from ws's seed — a nil ws seeds like an
// empty carrier, which is the cold start. The converged equilibrium is
// recorded into ws when non-nil. Besides the result it returns the
// solver internals the repair path persists: the charger game with its
// final aggregates and the converged device→slot assignment (coalition.
// Run mutates the game through Move, so the aggregates already match).
func ccsgaSolve(cm *CostModel, opts CCSGAOptions, ws *WarmStart, init []int) (*CCSGAResult, *chargerGame, []int, error) {
	if opts.Scheme == nil {
		opts.Scheme = PDS{}
	}
	if opts.Rule == 0 {
		opts.Rule = coalition.Selfish
	}
	game, err := newChargerGame(cm, opts.Scheme)
	if err != nil {
		return nil, nil, nil, err
	}
	if init != nil {
		err = game.validateInit(init)
	} else {
		init, err = ws.seed(cm, game.chargerOf, game.firstSlot)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ccsga: %w", err)
	}
	game.reset(init)

	var r *rand.Rand
	if opts.Seed != 0 {
		r = rand.New(rand.NewSource(opts.Seed))
	}
	res, err := coalition.Run(game, init, coalition.Options{
		Rule:      opts.Rule,
		MaxPasses: opts.MaxPasses,
		Epsilon:   opts.Epsilon,
		Rand:      r,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ccsga: %w", err)
	}

	sched := game.schedule(res.Assignment)
	// A converged Selfish run needs no separate Nash sweep: the final
	// zero-switch pass evaluated every device against every slot on an
	// assignment that never changed during the pass, which is exactly
	// IsNash at the run's epsilon (and the run epsilon here is at least
	// as strict as the 1e-9 verification threshold).
	nash := res.Converged && opts.Rule == coalition.Selfish && opts.Epsilon <= 1e-9
	if !nash {
		nash = coalition.IsNash(game, res.Assignment, 1e-9)
	}
	if ws != nil {
		ws.Record(cm.Instance(), sched)
	}
	return &CCSGAResult{
		Schedule:   sched,
		Switches:   res.Switches,
		Passes:     res.Passes,
		Converged:  res.Converged,
		NashStable: nash,
	}, game, res.Assignment, nil
}

// assignmentSchedule converts a device→charger assignment into a
// Schedule with one coalition per patronized charger.
func assignmentSchedule(assign []int, numChargers int) *Schedule {
	s := &Schedule{}
	for j, members := range coalition.Coalitions(assign, numChargers) {
		if len(members) == 0 {
			continue
		}
		sort.Ints(members)
		s.Coalitions = append(s.Coalitions, Coalition{Charger: j, Members: members})
	}
	return s
}

// chargerGame implements coalition.SocialGame with O(1) share queries via
// per-slot aggregates. A strategy is a session slot: exactly one per
// charger without capacities; ⌈total purchase / capacity⌉ slots per
// charger when a session capacity could force splitting.
type chargerGame struct {
	cm     *CostModel
	scheme SharingScheme
	// in is the instance behind cm, hoisted once at construction: Share,
	// join and leave sit on the innermost solver loop and must not pay a
	// method call (and pointer chase) per evaluation. The pointer stays
	// valid across CostModel delta ops, which mutate the Instance in
	// place.
	in *Instance

	// chargerOf maps slot → charger index.
	chargerOf []int
	// firstSlot maps charger → its first slot index.
	firstSlot []int

	cur []int // device -> slot
	// Aggregates per slot over current members.
	count     []int
	purchased []float64 // Σ demand_i/η
	moveSum   []float64
	sigmaSum  []float64

	// sigma memoizes each device's standalone cost at construction:
	// Share's ESS branch needs it twice per evaluation and join/leave
	// once each, and it never changes during a solve. A persisted game
	// (RepairState) keeps it current through the mutation listener; under
	// PDS the values only feed the (unused) sigmaSum aggregate, so a
	// stale entry after a tariff swap is harmless there.
	sigma []float64

	// Mobility state, allocated only when the instance has mobile
	// chargers: slotMembers[s] lists slot s's current members in
	// ascending device order, and routeLen[s] is the canonical planned
	// tour length over them (tour.Plan from the charger's home, members
	// ascending). Join and leave re-plan the touched slot's tour, so
	// tour-aware shares depend only on the member set, never on join
	// history — the property the pure-Nash verification needs.
	mobility    bool
	slotMembers [][]int
	routeLen    []float64
	tourScratch []int // planWith's reusable hypothetical member list

	pds bool // scheme is PDS (otherwise ESS semantics)
}

var (
	_ coalition.SocialGame   = (*chargerGame)(nil)
	_ coalition.LowerBounder = (*chargerGame)(nil)
)

// SessionSlots returns CCSGA's session-slot layout for the instance behind
// cm: chargerOf maps each slot to its charger index, firstSlot maps each
// charger to its first slot. Without session capacities every charger has
// exactly one slot; with capacities a charger gets ⌈total purchase /
// capacity⌉ slots (at most one per device).
func SessionSlots(cm *CostModel) (chargerOf, firstSlot []int) {
	in := cm.Instance()
	var totalDemand float64
	for _, d := range in.Devices {
		totalDemand += d.Demand
	}
	firstSlot = make([]int, len(in.Chargers))
	for j, ch := range in.Chargers {
		firstSlot[j] = len(chargerOf)
		slots := 1
		if ch.Capacity > 0 {
			need := totalDemand / ch.Efficiency
			slots = int(math.Ceil(need / ch.Capacity))
			if slots < 1 {
				slots = 1
			}
			if slots > cm.NumDevices() {
				slots = cm.NumDevices()
			}
		}
		for t := 0; t < slots; t++ {
			chargerOf = append(chargerOf, j)
		}
	}
	return chargerOf, firstSlot
}

func newChargerGame(cm *CostModel, scheme SharingScheme) (*chargerGame, error) {
	g := &chargerGame{cm: cm, scheme: scheme, in: cm.Instance()}
	switch scheme.(type) {
	case PDS:
		g.pds = true
	case ESS:
		g.pds = false
	default:
		return nil, fmt.Errorf("ccsga: unsupported sharing scheme %q", scheme.Name())
	}
	g.chargerOf, g.firstSlot = SessionSlots(cm)
	n := len(g.chargerOf)
	g.count = make([]int, n)
	g.purchased = make([]float64, n)
	g.moveSum = make([]float64, n)
	g.sigmaSum = make([]float64, n)
	g.cur = make([]int, cm.NumDevices())
	g.sigma = make([]float64, cm.NumDevices())
	for i := range g.sigma {
		g.sigma[i], _ = cm.StandaloneCost(i)
	}
	if cm.HasMobility() {
		g.mobility = true
		g.slotMembers = make([][]int, n)
		g.routeLen = make([]float64, n)
	}
	return g, nil
}

// validateInit checks a caller-supplied device→slot seed: one in-range
// slot per device, and per-slot purchases within the slot's session
// capacity.
func (g *chargerGame) validateInit(init []int) error {
	cm := g.cm
	in := cm.Instance()
	if len(init) != cm.NumDevices() {
		return fmt.Errorf("init length %d, want %d devices", len(init), cm.NumDevices())
	}
	purchased := make([]float64, len(g.chargerOf))
	for i, s := range init {
		if s < 0 || s >= len(g.chargerOf) {
			return fmt.Errorf("init assigns device %d slot %d of %d", i, s, len(g.chargerOf))
		}
		purchased[s] += in.Devices[i].Demand / in.Chargers[g.chargerOf[s]].Efficiency
	}
	for s, p := range purchased {
		if cap := in.Chargers[g.chargerOf[s]].Capacity; cap > 0 && p > cap*(1+1e-12) {
			return fmt.Errorf("init overfills slot %d (charger %d): %.1f J > %.1f J capacity",
				s, g.chargerOf[s], p, cap)
		}
	}
	if cm.HasTravelBudget() {
		members := make([][]int, len(g.chargerOf))
		for i, s := range init {
			members[s] = append(members[s], i) // ascending: i iterates in order
		}
		for s, ms := range members {
			j := g.chargerOf[s]
			ch := &in.Chargers[j]
			if !ch.Mobile || ch.TravelBudget == 0 || len(ms) == 0 {
				continue
			}
			if l := cm.TourLength(ms, j); l > ch.TravelBudget*(1+1e-12) {
				return fmt.Errorf("init overruns slot %d (charger %d) travel budget: %.1f m > %.1f m",
					s, j, l, ch.TravelBudget)
			}
		}
	}
	return nil
}

// schedule converts a device→slot assignment into a Schedule (one
// coalition per occupied slot; same-charger sessions are merged only in
// the uncapacitated case, where a slot per charger makes it a no-op).
func (g *chargerGame) schedule(assign []int) *Schedule {
	s := &Schedule{}
	for slot, members := range coalition.Coalitions(assign, len(g.chargerOf)) {
		if len(members) == 0 {
			continue
		}
		sort.Ints(members)
		s.Coalitions = append(s.Coalitions, Coalition{
			Charger: g.chargerOf[slot],
			Members: members,
		})
	}
	return s
}

// reset installs the assignment and rebuilds aggregates.
func (g *chargerGame) reset(assign []int) {
	for s := range g.count {
		g.count[s] = 0
		g.purchased[s] = 0
		g.moveSum[s] = 0
		g.sigmaSum[s] = 0
	}
	if g.mobility {
		for s := range g.slotMembers {
			g.slotMembers[s] = g.slotMembers[s][:0]
			g.routeLen[s] = 0
		}
	}
	copy(g.cur, assign)
	for i, s := range assign {
		g.join(i, s)
	}
}

func (g *chargerGame) join(i, s int) {
	g.addAggregates(i, s)
	if g.mobility {
		j := g.chargerOf[s]
		ms := g.slotMembers[s]
		at := sort.SearchInts(ms, i)
		ms = append(ms, 0)
		copy(ms[at+1:], ms[at:])
		ms[at] = i
		g.slotMembers[s] = ms
		if g.in.Chargers[j].Mobile {
			g.routeLen[s] = g.cm.TourLength(ms, j)
		}
	}
}

// addAggregates folds device i into slot s's count, purchase, moving
// and standalone sums — join's arithmetic, also used to rebuild a slot
// from scratch, so both produce the same bits.
func (g *chargerGame) addAggregates(i, s int) {
	j := g.chargerOf[s]
	g.count[s]++
	g.purchased[s] += g.in.Devices[i].Demand / g.in.Chargers[j].Efficiency
	g.moveSum[s] += g.cm.MovingCost(i, j)
	g.sigmaSum[s] += g.sigma[i]
}

func (g *chargerGame) leave(i, s int) {
	j := g.chargerOf[s]
	g.count[s]--
	g.purchased[s] -= g.in.Devices[i].Demand / g.in.Chargers[j].Efficiency
	g.moveSum[s] -= g.cm.MovingCost(i, j)
	g.sigmaSum[s] -= g.sigma[i]
	if g.mobility {
		ms := g.slotMembers[s]
		at := sort.SearchInts(ms, i)
		g.slotMembers[s] = append(ms[:at], ms[at+1:]...)
		if g.in.Chargers[j].Mobile {
			g.routeLen[s] = g.cm.TourLength(g.slotMembers[s], j)
		}
	}
}

// NumAgents implements coalition.Game.
func (g *chargerGame) NumAgents() int { return g.cm.NumDevices() }

// NumStrategies implements coalition.Game.
func (g *chargerGame) NumStrategies() int { return len(g.chargerOf) }

// Share implements coalition.Game: device i's cost share if it joined
// session slot s, holding everyone else fixed.
func (g *chargerGame) Share(i, s int) float64 {
	j := g.chargerOf[s]
	ch := &g.in.Chargers[j]
	myPurchased := g.in.Devices[i].Demand / ch.Efficiency
	myMove := g.cm.MovingCost(i, j)

	cnt := g.count[s]
	purch := g.purchased[s]
	moveSum := g.moveSum[s]
	sigmaSum := g.sigmaSum[s]
	if g.cur[i] != s { // hypothetical join
		if ch.Capacity > 0 && purch+myPurchased > ch.Capacity*(1+1e-12) {
			return math.Inf(1) // the session is full; joining is infeasible
		}
		cnt++
		purch += myPurchased
		moveSum += myMove
		sigmaSum += g.sigma[i]
	}
	charging := ch.Fee + ch.Tariff.Price(purch)
	if g.mobility && ch.Mobile {
		// Tour-aware share: the charger's travel over its re-planned
		// rendezvous tour is a session-level cost like the fee, so it
		// folds into the term both schemes split among the members. A
		// hypothetical join prices the marginal detour of the re-planned
		// tour with the device included — and is infeasible outright when
		// that tour overruns the charger's travel budget.
		tourLen := g.routeLen[s]
		if g.cur[i] != s {
			tourLen = g.planWith(s, i)
			if ch.TravelBudget > 0 && tourLen > ch.TravelBudget*(1+1e-12) {
				return math.Inf(1)
			}
		}
		charging += ch.MoveRate * tourLen
	}
	if g.pds {
		return myMove + charging*myPurchased/purch
	}
	// ESS.
	cost := charging + moveSum
	surplusPer := (sigmaSum - cost) / float64(cnt)
	return g.sigma[i] - surplusPer
}

// ShareLowerBound implements coalition.LowerBounder. A PDS share is
// myMove + charging·mine/purch, and the second term is >= 0 (fee, tariff
// and tour cost are all >= 0), so the rounded share is >= the moving
// cost. Under ESS a member's share can fall below its moving cost, so
// there is no bound.
func (g *chargerGame) ShareLowerBound(i, s int) float64 {
	if !g.pds {
		return math.Inf(-1)
	}
	return g.cm.MovingCost(i, g.chargerOf[s])
}

// Move implements coalition.Game.
func (g *chargerGame) Move(i, from, to int) {
	g.leave(i, from)
	g.join(i, to)
	g.cur[i] = to
}

// planWith returns the planned tour length of slot s's members with
// device i hypothetically joined, reusing a scratch buffer so Share's
// inner loop does not allocate the member list per evaluation.
func (g *chargerGame) planWith(s, i int) float64 {
	ms := g.slotMembers[s]
	at := sort.SearchInts(ms, i)
	buf := g.tourScratch[:0]
	buf = append(buf, ms[:at]...)
	buf = append(buf, i)
	buf = append(buf, ms[at:]...)
	g.tourScratch = buf
	return g.cm.TourLength(buf, g.chargerOf[s])
}

// TotalCost implements coalition.SocialGame.
func (g *chargerGame) TotalCost() float64 {
	var total float64
	for s, cnt := range g.count {
		if cnt == 0 {
			continue
		}
		ch := &g.in.Chargers[g.chargerOf[s]]
		total += ch.Fee + ch.Tariff.Price(g.purchased[s]) + g.moveSum[s]
		if g.mobility && ch.Mobile {
			total += ch.MoveRate * g.routeLen[s]
		}
	}
	return total
}
